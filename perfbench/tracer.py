"""Span tracer for the traced benchmark run.

The library is not instrumented.  Instead the tracer replaces, for the
duration of a `with Tracer():` block, the module attributes that the
library's own callers look up at call time (HOOKS) with wrappers that
record one span per call: name, start, end and the enclosing span.  Counts
are read from arguments and return values only.  A hooked name that no
longer exists is listed in `Tracer.missing`, and every metric that needs it
is reported absent rather than zero.
"""

from __future__ import annotations

import importlib
import time

# Names the callers look up: afb_solve resolves these in wtv.forward_backward,
# wsb_solve and the linear solvers resolve these in wtv.bregman.
HOOKS = {
    "wtv.forward_backward": (
        "wsb_solve", "forward_step", "compute_weights", "theta_bound",
        "objective_composite", "psnr", "power_method", "GaussSeidelSystem",
    ),
    "wtv.bregman": (
        "fwsb_linear_solve", "gauss_seidel_solve", "grad_w", "div_w",
        "soft", "cut", "theta_bound",
    ),
}

FB = "forward_backward."
BR = "bregman."
ROOT_SPAN = FB + "afb_solve"
LINEAR = (BR + "fwsb_linear_solve", BR + "gauss_seidel_solve")
THETA = (FB + "theta_bound", BR + "theta_bound")
SHRINK = (BR + "soft", BR + "cut")
LOG = (FB + "objective_composite", FB + "psnr")

# span record fields
NAME, START, END, PARENT, COUNT, HIT = range(6)


def _params(args, kwargs):
    """The BregmanParams argument of a call: the one carrying both caps."""
    for value in (*args, *kwargs.values()):
        if hasattr(value, "max_outer") and hasattr(value, "max_inner"):
            return value
    return None


def _count_sweeps(args, kwargs, out):
    # wsb_solve returns (U, total inner iterations, sweeps)
    return out[2], out[2] == _params(args, kwargs).max_outer


def _count_inner(args, kwargs, out):
    # a linear solve returns (X, iterations)
    return out[1], out[1] == _params(args, kwargs).max_inner


COUNTERS = {
    FB + "wsb_solve": _count_sweeps,
    BR + "fwsb_linear_solve": _count_inner,
    BR + "gauss_seidel_solve": _count_inner,
}


class Tracer:
    """Records spans for calls into the hooked library names."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, count, hit]
        self.missing = []
        self._stack = []
        self._undo = []

    def __enter__(self):
        for modname, names in HOOKS.items():
            module = importlib.import_module(modname)
            prefix = modname.rsplit(".", 1)[1] + "."
            for attr in names:
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(prefix + attr)
                    continue
                setattr(module, attr, self.wrap(prefix + attr, original))
                self._undo.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        return False

    def wrap(self, name, fn):
        """fn, recording a span called name around every call."""
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if counter is not None:
                try:
                    record[COUNT], record[HIT] = counter(args, kwargs, out)
                except (TypeError, IndexError, AttributeError):
                    pass  # return shape changed: the count stays None (absent)
            return out

        return traced

    def write_spans(self, path) -> None:
        """Write every span as CSV, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,count,hit\n")
            for i, (name, start, end, parent, count, hit) in enumerate(self.spans):
                fh.write(
                    f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},"
                    f"{'' if count is None else count},{int(hit)}\n"
                )

    def _aggregate(self):
        """Per span name: calls, total seconds, self seconds, count sum, hits."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        agg = {}
        for span, covered in zip(self.spans, child):
            a = agg.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                            "count": 0, "hits": 0})
            dur = span[END] - span[START]
            a["calls"] += 1
            a["s"] += dur
            a["self_s"] += dur - covered
            a["hits"] += span[HIT]
            a["count"] = None if a["count"] is None or span[COUNT] is None else (
                a["count"] + span[COUNT])
        return agg

    def layer_metrics(self) -> dict:
        """Per-layer metrics {name: (value, unit)}; absent ones are left out."""
        agg = self._aggregate()
        empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "hits": 0}

        def total(key, *names):
            values = [agg.get(n, empty)[key] for n in names]
            return None if None in values else sum(values)

        def ratio(num, den, scale=1.0):
            return None if num is None or not den else scale * num / den

        steps = total("calls", FB + "wsb_solve")
        table = [
            ("forward_backward.steps", "count", [FB + "forward_step"],
             total("calls", FB + "forward_step")),
            ("forward_backward.forward_step_s", "s", [FB + "forward_step"],
             total("s", FB + "forward_step")),
            ("forward_backward.log_s", "s", LOG, total("s", *LOG)),
            ("forward_backward.self_s", "s", [], total("self_s", ROOT_SPAN)),
            ("operators.power_method_s", "s", [FB + "power_method"],
             total("s", FB + "power_method")),
            ("potential.compute_weights_calls", "count", [FB + "compute_weights"],
             total("calls", FB + "compute_weights")),
            ("potential.compute_weights_s", "s", [FB + "compute_weights"],
             total("s", FB + "compute_weights")),
            ("bregman.backward_steps", "count", [FB + "wsb_solve"], steps),
            ("bregman.sweeps", "count", [FB + "wsb_solve"],
             total("count", FB + "wsb_solve")),
            ("bregman.max_outer_hits", "count", [FB + "wsb_solve"],
             total("hits", FB + "wsb_solve")),
            ("bregman.converged_frac", "ratio", [FB + "wsb_solve"],
             None if not steps else 1.0 - total("hits", FB + "wsb_solve") / steps),
            ("bregman.linear_solves", "count", LINEAR, total("calls", *LINEAR)),
            ("bregman.inner_iters", "count", LINEAR, total("count", *LINEAR)),
            ("bregman.max_inner_hits", "count", LINEAR, total("hits", *LINEAR)),
            ("bregman.linear_solve_s", "s", LINEAR, total("s", *LINEAR)),
            ("bregman.linear_solve_self_s", "s", LINEAR, total("self_s", *LINEAR)),
            ("bregman.inner_iter_us", "us", LINEAR,
             ratio(total("s", *LINEAR), total("count", *LINEAR), 1e6)),
            ("bregman.theta_bound_calls", "count", THETA, total("calls", *THETA)),
            ("bregman.theta_bound_s", "s", THETA, total("s", *THETA)),
            ("bregman.shrink_s", "s", SHRINK, total("s", *SHRINK)),
            ("bregman.wsb_self_s", "s", [FB + "wsb_solve"],
             total("self_s", FB + "wsb_solve")),
            ("bregman.gs_system_calls", "count", [FB + "GaussSeidelSystem"],
             total("calls", FB + "GaussSeidelSystem")),
            ("bregman.gs_system_s", "s", [FB + "GaussSeidelSystem"],
             total("s", FB + "GaussSeidelSystem")),
        ]
        for op in ("grad_w", "div_w"):
            name = BR + op
            table += [
                (f"grid.{op}_calls", "count", [name], total("calls", name)),
                (f"grid.{op}_s", "s", [name], total("s", name)),
                (f"grid.{op}_us", "us", [name],
                 ratio(total("s", name), total("calls", name), 1e6)),
            ]
        return {
            name: (value, unit)
            for name, unit, needs, value in table
            if value is not None and not any(n in self.missing for n in needs)
        }
