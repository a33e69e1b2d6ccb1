"""Layer tracing from outside the package.

``Tracer.install`` wraps public functions of each ``sphkern`` module, both
where they are defined and wherever another ``sphkern`` module imported them
by name, so no file of the package changes.  Each wrapped call records a span
(name, start, end, parent id, tag) in memory; self times are derived when a
span closes: its duration minus the time its child spans cover.  Counters
(points, calls, computed bytes) are taken at the same boundaries.

``ZonalKernel.__call__`` carries every kernel evaluation, so it gets a
counter only; a span there would multiply the tracing overhead.  The one
exception is a montee iterate beyond the closed forms (the numeric
composition route), which has no public function of its own.  Scalar
helpers (``gegenbauer_at_one``, ``weight_w``, ``mu``, ...) are not wrapped;
their time stays with the caller.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import re
import sys
import time
from collections import defaultdict

import numpy as np

from sphkern import (
    checks,
    cli,
    convolution,
    gegenbauer,
    interpolation,
    kernels,
    operators,
    spd,
    zonal,
)

LAYERS = ("gegenbauer", "operators", "kernels", "convolution", "spd", "interpolation", "checks", "cli", "zonal")

#: Module -> public functions that get a span named "<module>.<function>".
SPANNED = {
    gegenbauer: ("eval_gegenbauer", "eval_gegenbauer_derivative", "quadrature_rule", "transform", "series_eval"),
    operators: ("check_D_on_gegenbauer", "check_I_on_gegenbauer", "coeff_map_derivative", "montee_positivity_shift"),
    kernels: ("kernel_from_descriptor",),
    convolution: (
        "conv0",
        "dimension_hop_conv",
        "cap_transform",
        "cap_transform_quadrature",
        "cap_montee_selfconv0_closed",
        "conv_property_check",
        "bnorm",
    ),
    spd: ("classify", "gram_min_eig", "generate_points"),
    interpolation: ("solve_interpolation", "evaluate_interpolant"),
    checks: ("run_checks",),
}

#: Kernel evaluators, one per route; the span is "kernels.eval.<route>" and
#: the argument at the given position holds the evaluation points.
KERNEL_ROUTES = {
    "eval_truncated_power": ("truncated_power", 1),
    "eval_montee_closed_form": ("closed_form", 2),
    "eval_montee_recurrence": ("recurrence", 2),
    "eval_cap_kernel": ("cap", 2),
}
ROUTES = ("truncated_power", "closed_form", "recurrence", "numeric_composition", "cap")

# (m, k) pairs with a printed closed form, read from the public tags "If2", "I2f4", ...
_CLOSED_FORM_MK = {
    (int(m), int(k or 1)) for k, m in (re.fullmatch(r"I(\d*)f(\d+)", tag).groups() for tag in kernels.CLOSED_FORM_TAGS)
}


def kernel_route(descriptor) -> str | None:
    """Evaluation route of a kernel, read from its descriptor's (m, k)."""
    if not descriptor:
        return None
    family = descriptor.get("family")
    if family == "truncated_power":
        return "truncated_power"
    if family == "cap_conv":
        return "cap"
    if family == "montee":
        m, k = int(descriptor["m"]), int(descriptor["k"])
        if (m, k) in _CLOSED_FORM_MK:
            return "closed_form"
        return "recurrence" if k == 1 else "numeric_composition"
    return None


class _Frame:
    __slots__ = ("sid", "name", "layer", "tag", "start", "children", "by_layer")

    def __init__(self, sid, name, layer, tag, start):
        self.sid, self.name, self.layer, self.tag, self.start = sid, name, layer, tag, start
        self.children = 0.0
        self.by_layer = None


class Tracer:
    """In-memory span recorder with derived self and inclusive times."""

    def __init__(self):
        self.tag = None
        self.spans = []  # (id, name, tag, start, end, parent id)
        self.stack = []
        self.active = defaultdict(int)
        self.self_time = defaultdict(float)  # (name, tag) -> seconds
        self.inclusive = defaultdict(float)  # (name, tag) -> seconds, outermost spans only
        self.calls = defaultdict(int)  # (name, tag) -> count
        self.minus_operators = defaultdict(float)  # (name, tag) -> duration minus operators children
        self.counters = defaultdict(float)
        self.gauges = {}
        self._patches = []

    # -- spans -------------------------------------------------------------

    def push(self, name: str):
        frame = _Frame(len(self.spans), name, name.split(".", 1)[0], self.tag, time.perf_counter())
        self.spans.append(None)  # reserve the id; filled on close
        self.stack.append(frame)
        self.active[name] += 1

    def pop(self):
        end = time.perf_counter()
        frame = self.stack.pop()
        duration = end - frame.start
        key = (frame.name, frame.tag)
        parent = self.stack[-1] if self.stack else None
        self.spans[frame.sid] = (frame.sid, frame.name, frame.tag, frame.start, end, parent.sid if parent else -1)
        self.self_time[key] += duration - frame.children
        self.calls[key] += 1
        ops_children = frame.by_layer.get("operators", 0.0) if frame.by_layer else 0.0
        self.minus_operators[key] += duration - ops_children
        self.active[frame.name] -= 1
        if self.active[frame.name] == 0:
            self.inclusive[key] += duration
        if parent is not None:
            parent.children += duration
            if parent.by_layer is None:
                parent.by_layer = defaultdict(float)
            parent.by_layer[frame.layer] += duration

    def spanned(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; ``before(args, kwargs)`` counts inputs,
        ``after(result, args, kwargs)`` runs in a span of the 'trace' layer so
        its cost is not charged to the caller."""

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            self.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.pop()
            if after is not None:
                self.push("trace.after")
                try:
                    after(result, args, kwargs)
                finally:
                    self.pop()
            return result

        return functools.wraps(fn)(wrapper)

    def counting(self, fn, prefix: str):
        """fn wrapped to count its calls and the points it receives."""

        def wrapper(x):
            self.counters[prefix + "_calls"] += 1
            self.counters[prefix + "_points"] += np.size(x)
            return fn(x)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, orig, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sphkern" or mod_name.startswith("sphkern.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _set(self, target, key, value):
        """Patch an attribute, or an item when target is a dict."""
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def install(self):
        for module, names in SPANNED.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for fname in names:
                orig = getattr(module, fname)
                hooks = self._hooks(fname)
                self._replace_everywhere(orig, self.spanned(f"{layer}.{fname}", orig, *hooks))
        for fname, (route, xpos) in KERNEL_ROUTES.items():
            orig = getattr(kernels, fname)
            self._replace_everywhere(orig, self.spanned(f"kernels.eval.{route}", orig, self._points(route, xpos)))
        self._replace_everywhere(operators.montee_numeric, self._operator_wrapper("montee", operators.montee_numeric))
        self._replace_everywhere(operators.descente_numeric, self._operator_wrapper("descente", operators.descente_numeric))
        self._set(spd.PointSet, "__post_init__", self.spanned("spd.PointSet", spd.PointSet.__post_init__))
        self._replace_everywhere(spd.gram_matrix, self.spanned("spd.gram_matrix", spd.gram_matrix, after=self._gram_after))
        for check_name, orig in list(checks.CHECKS.items()):
            wrapper = self.spanned(f"checks.{check_name}", orig)
            self._replace_everywhere(orig, wrapper)
            self._set(checks.CHECKS, check_name, wrapper)
        self._replace_everywhere(cli.main, self.spanned("cli.main", cli.main))
        self._set(zonal.ZonalKernel, "__call__", self._zonal_call(zonal.ZonalKernel.__call__))

    def uninstall(self):
        for target, attr, orig in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._patches.clear()

    # -- per-function counters ---------------------------------------------

    def _hooks(self, fname):
        if fname == "transform":
            sig = inspect.signature(gegenbauer.transform)

            def before(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                f, n_max, order = bound.arguments["f"], bound.arguments["n_max"], bound.arguments["order"]
                bps = tuple(getattr(f, "breakpoints", ()))
                if bps:  # theta panels split at the breakpoints, `order` nodes each
                    edges = {0.0, np.pi} | {float(np.arccos(b)) for b in bps if -1.0 <= b <= 1.0}
                    nodes = order * (len(edges) - 1)
                else:
                    nodes = max(order, n_max + 1)
                self.counters["gegenbauer.transform_table_bytes"] += 8 * (n_max + 1) * nodes

            return before, None
        if fname == "series_eval":

            def before(args, kwargs):
                series, x = args[0], args[1]
                self.counters["gegenbauer.series_eval_points"] += np.size(x)
                self.counters["gegenbauer.series_table_bytes"] += 8 * (series.truncation + 1) * np.size(x)

            return before, None
        if fname == "dimension_hop_conv":

            def before(args, kwargs):
                self.counters["convolution.hop_points"] += 1

            return before, None
        if fname == "solve_interpolation":

            def after(result, args, kwargs):
                self.gauges[f"interpolation.residual_inf.{self.tag}"] = result.residual_inf

            return None, after
        if fname == "evaluate_interpolant":

            def after(result, args, kwargs):
                itp, x = args[0], args[1]
                queries = np.atleast_2d(x).shape[0]
                self.gauges[f"interpolation.eval_matrix_bytes.{self.tag}"] = 8 * queries * len(itp.centers)

            return None, after
        return None, None

    def _points(self, route, xpos):
        def before(args, kwargs):
            x = args[xpos] if len(args) > xpos else kwargs["x"]
            self.counters[f"kernels.eval_points.{route}"] += np.size(x)

        return before

    def _gram_after(self, result, args, kwargs):
        self.gauges[f"spd.gram_nnz_frac.{self.tag}"] = np.count_nonzero(result) / result.size
        self.gauges[f"spd.gram_bytes.{self.tag}"] = result.nbytes

    def _operator_wrapper(self, op: str, orig):
        """montee_numeric / descente_numeric with a span on the image's
        evaluations and a counter on the kernel passed in (the integrand)."""

        def wrapper(f, *args, **kwargs):
            counted = dataclasses.replace(f, fn=self.counting(f.fn, f"operators.{op}_integrand"))
            image = orig(counted, *args, **kwargs)

            def evaluate(xs, _ev=image.evaluator):
                self.counters[f"operators.{op}_calls"] += 1
                self.push(f"operators.{op}")
                try:
                    return _ev(xs)
                finally:
                    self.pop()

            return dataclasses.replace(image, evaluator=evaluate)

        return wrapper

    def _zonal_call(self, orig):
        route_span = "kernels.eval.numeric_composition"

        def call(kernel, x):
            n = np.size(x)
            self.counters["zonal.kernel_points"] += n
            if kernel_route(kernel.descriptor) == "numeric_composition":
                self.counters["kernels.eval_points.numeric_composition"] += n
                self.push(route_span)
                try:
                    return orig(kernel, x)
                finally:
                    self.pop()
            return orig(kernel, x)

        return call

    # -- output ------------------------------------------------------------

    def layer_self(self) -> dict:
        out = defaultdict(float)
        for (name, _tag), seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def total(self, table, name, tag=None) -> float:
        return sum(v for (n, t), v in table.items() if n == name and (tag is None or t == tag))

    def write(self, path: str, extra: dict):
        names = sorted({s[1] for s in self.spans})
        tags = sorted({str(s[2]) for s in self.spans})
        name_idx = {n: i for i, n in enumerate(names)}
        tag_idx = {t: i for i, t in enumerate(tags)}
        t0 = min((s[3] for s in self.spans), default=0.0)
        rows = [
            [sid, name_idx[name], tag_idx[str(tag)], round(start - t0, 7), round(end - t0, 7), parent]
            for sid, name, tag, start, end, parent in self.spans
        ]
        payload = {
            **extra,
            "span_columns": ["id", "name", "tag", "start_s", "end_s", "parent_id"],
            "names": names,
            "tags": tags,
            "spans": rows,
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
