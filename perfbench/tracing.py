"""Span tracing of cubicmaps from outside the package, and the per-layer metrics it yields.

``Tracer.install`` wraps the public functions of each layer.  ``cli``,
``toda`` and ``equilibrium`` bind some of them with ``from ... import``, so a
wrapper replaces every ``cubicmaps.*`` module attribute bound to the original
function, not only the one in its home module; class methods are replaced on
the class.  Each call records a span (name, start, end, parent span, job id)
in memory, and some calls add to a count; the worker writes both out when the
job list ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict


def _series_terms(counts, args, result):
    # coefficient products implied by the operand lengths (zero skips ignored)
    a, b = args[0], args[1]
    if hasattr(b, "coeffs"):
        n = min(len(a.coeffs), len(b.coeffs))
        counts["series.mul_terms"] += n * (n + 1) // 2
    else:
        counts["series.mul_terms"] += len(a.coeffs)


def _moment_orders(counts, args, result):
    counts["finite_n.moment_orders"] += args[3] + 1


def _recurrence_quality(counts, args, result):
    loss = max(result.conditioning_loss)
    counts["finite_n.conditioning_loss_max"] = max(counts.get("finite_n.conditioning_loss_max", loss), loss)
    digits = result.cross_check_digits
    counts["finite_n.cross_check_digits_min"] = min(counts.get("finite_n.cross_check_digits_min", digits), digits)


def _matchings(counts, args, result):
    counts["wick.matchings"] += result.total


def _bytes_out(counts, args, result):
    counts["serialize.bytes_out"] += len(result)


# span name -> (module, attribute path, count hook)
TARGETS = {
    "cli.main": ("cli", "main", None),
    "series.mul": ("series", "TruncatedSeries.__mul__", _series_terms),
    "series.div": ("series", "TruncatedSeries.__truediv__", None),
    "numbers.qbeta_inverse": ("numbers", "Qbeta.inverse", None),
    "hierarchy.build": ("hierarchy", "build_hierarchy", None),
    "hierarchy.solve_order": ("hierarchy", "solve_order_k", None),
    "hierarchy.g0_series": ("hierarchy", "compute_g0_series", None),
    "toda.genus_table": ("toda", "genus_table", None),
    "toda.integrate": ("toda", "toda_integrate", None),
    "critical.recursion": ("critical", "run_C_recursion", None),
    "critical.K": ("critical", "compute_K", None),
    "wick.census": ("wick", "census", _matchings),
    "finite_n.report": ("finite_n", "build_report", None),
    "finite_n.moments": ("finite_n", "compute_moments", _moment_orders),
    "finite_n.recurrence": ("finite_n", "recurrence_from_moments", _recurrence_quality),
    "finite_n.residuals": ("finite_n", "string_residuals", None),
    "finite_n.prediction": ("finite_n", "expansion_prediction", None),
    "finite_n.toda": ("finite_n", "toda_residual", None),
    "equilibrium.solve": ("equilibrium", "solve_endpoints", None),
    "equilibrium.phi_check": ("equilibrium", "phi_check", None),
    "quadrature.integrate": ("quadrature", "integrate", None),
    "serialize.encode_fraction": ("serialize", "encode_fraction", None),
    "serialize.encode_qbeta": ("serialize", "encode_qbeta", None),
    "serialize.encode_bigfloat": ("serialize", "encode_bigfloat", None),
    "serialize.encode_float": ("serialize", "encode_float", None),
    "serialize.encode_value": ("serialize", "encode_value", None),
    "serialize.encode_series": ("serialize", "encode_series", None),
    "serialize.dump_json": ("serialize", "dump_json", _bytes_out),
    "serialize.dump_csv": ("serialize", "dump_csv", _bytes_out),
}


class Tracer:
    """Spans and counts of one traced worker, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1, job]
        self.counts: dict = defaultdict(int)
        self.job = -1
        self._stack = [-1]

    def wrap(self, name, fn, hook=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, tracer.job]
            if hook is not None:
                hook(counts, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every target, replacing each binding of it in cubicmaps modules and classes."""
        for name, (module_name, path, hook) in TARGETS.items():
            owner = importlib.import_module(f"cubicmaps.{module_name}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook)
            if classes:
                _rebind(vars(owner), original, wrapper, owner)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "cubicmaps" or mod_name.startswith("cubicmaps."):
                        _rebind(vars(mod), original, wrapper, mod)
        # the node tables finite_n takes from mpmath
        from mpmath.calculus.quadrature import GaussLegendre

        GaussLegendre.calc_nodes = self.wrap("finite_n.nodes", GaussLegendre.calc_nodes)


def _rebind(namespace, original, wrapper, owner) -> None:
    for attr, value in list(namespace.items()):
        if value is original:
            setattr(owner, attr, wrapper)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


# per-layer metric -> span names whose self time it sums
LAYER_SELF_TIME = {
    "series.mul_s": ("series.mul",),
    "series.div_s": ("series.div",),
    "numbers.qbeta_inverse_s": ("numbers.qbeta_inverse",),
    "hierarchy.build_s": ("hierarchy.build",),
    "hierarchy.solve_order_s": ("hierarchy.solve_order",),
    "hierarchy.g0_series_s": ("hierarchy.g0_series",),
    "toda.genus_table_s": ("toda.genus_table",),
    "toda.integrate_s": ("toda.integrate",),
    "critical.recursion_s": ("critical.recursion",),
    "critical.K_s": ("critical.K",),
    "wick.census_s": ("wick.census",),
    "finite_n.moments_s": ("finite_n.moments",),
    "finite_n.nodes_s": ("finite_n.nodes",),
    "finite_n.recurrence_s": ("finite_n.recurrence",),
    "finite_n.residuals_s": ("finite_n.residuals",),
    "finite_n.prediction_s": ("finite_n.prediction",),
    "finite_n.toda_s": ("finite_n.toda",),
    "equilibrium.solve_s": ("equilibrium.solve",),
    "equilibrium.phi_check_s": ("equilibrium.phi_check",),
    "quadrature.integrate_s": ("quadrature.integrate",),
    "serialize.encode_s": tuple(n for n in TARGETS if n.startswith("serialize.")),
    "cli.self_s": ("cli.main",),
}

# per-layer metric -> span name whose calls it counts
LAYER_CALLS = {
    "series.mul_calls": "series.mul",
    "series.div_calls": "series.div",
    "numbers.qbeta_inverse_calls": "numbers.qbeta_inverse",
    "wick.census_calls": "wick.census",
    "quadrature.integrate_calls": "quadrature.integrate",
}

# per-layer metric -> unit, for the counts the hooks keep
LAYER_COUNTS = {
    "series.mul_terms": "count",
    "finite_n.moment_orders": "count",
    "finite_n.conditioning_loss_max": "digits",
    "finite_n.cross_check_digits_min": "digits",
    "serialize.bytes_out": "B",
}


def layer_metrics(spans, counts) -> dict[str, dict]:
    """Per-layer self times, call counts and counts of one traced run, with units; idle layers read 0."""
    selfs = self_times(spans)
    by_name = defaultdict(float)
    calls = defaultdict(int)
    census_wall = 0.0
    for span, own in zip(spans, selfs):
        by_name[span[0]] += own
        calls[span[0]] += 1
        if span[0] == "wick.census":
            census_wall += span[2] - span[1]
    out = {metric: (sum(by_name[n] for n in names), "s") for metric, names in LAYER_SELF_TIME.items()}
    out.update({metric: (calls[name], "count") for metric, name in LAYER_CALLS.items()})
    for name, unit in LAYER_COUNTS.items():
        value = counts.get(name, 0)
        out[name] = (value if math.isfinite(value) else 1e9, unit)  # exact agreement reads as 1e9 digits
    matchings = counts.get("wick.matchings", 0)
    out["wick.matchings_per_s"] = (matchings / census_wall if census_wall else 0.0, "1/s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
