"""Spans around calls into retailrisk's public functions, installed from outside.

The tracer replaces a function by a wrapper at every ``retailrisk.*`` module
attribute that holds it, so callers that look the name up (``cli.run_screen``,
``pipeline.fit_logistic``, ``linalg.cholesky`` inside ``solve_spd``) go
through the span. Nothing under ``src/`` changes. Spans are kept in memory,
one list per operation, and summarised once at the end.

A span is ``[name, start, end, parent, info]``: ``parent`` indexes the same
operation's span list (-1 for a top-level call) and ``info`` holds what the
wrapper read from the result (iterations, convergence, design digest, output
size) or the name of the exception that the call raised.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import sys
import time

#: (span name, defining module, function). Several functions may share a span
#: name; a span nested inside one of the same name is not counted again.
TARGETS = (
    ("cli.run_command", "retailrisk.cli", "run_command"),
    ("dataset.parse", "retailrisk.dataset", "parse_dataset"),
    ("dataset.parse", "retailrisk.dataset", "embedded_dataset"),
    ("dataset.design_matrix", "retailrisk.dataset", "design_matrix"),
    ("descriptive.describe", "retailrisk.descriptive", "describe"),
    ("descriptive.correlation_matrix", "retailrisk.descriptive", "correlation_matrix"),
    ("logistic.fit_logistic", "retailrisk.logistic", "fit_logistic"),
    ("firth.fit_firth", "retailrisk.firth", "fit_firth"),
    ("linalg.cholesky", "retailrisk.linalg", "cholesky"),
    ("linalg.solve_spd", "retailrisk.linalg", "solve_spd"),
    ("linalg.inverse_spd", "retailrisk.linalg", "inverse_spd"),
    ("linalg.log_det_spd", "retailrisk.linalg", "log_det_spd"),
    ("pipeline.run_screen", "retailrisk.pipeline", "run_screen"),
    ("pipeline.fit_final_model", "retailrisk.pipeline", "fit_final_model"),
    ("pipeline.table", "retailrisk.pipeline", "probability_table"),
    ("pipeline.table", "retailrisk.pipeline", "table_from_coefficients"),
    ("report.sections", "retailrisk.report", "describe_section"),
    ("report.sections", "retailrisk.report", "correlation_section"),
    ("report.sections", "retailrisk.report", "screen_section"),
    ("report.sections", "retailrisk.report", "final_model_section"),
    ("report.sections", "retailrisk.report", "probability_section"),
    ("report.sections", "retailrisk.report", "drift_section"),
    ("report.render", "retailrisk.report", "render"),
)

#: Spans whose call count per op is reported as ``<name>.calls``.
COUNTED = ("dataset.parse", "dataset.design_matrix", "logistic.fit_logistic", "firth.fit_firth",
           "linalg.cholesky", "linalg.solve_spd", "linalg.inverse_spd", "linalg.log_det_spd")
#: Spans whose inclusive time per op is reported as ``<name>.ms``.
TIMED = ("dataset.parse", "dataset.design_matrix", "descriptive.describe",
         "descriptive.correlation_matrix", "pipeline.run_screen", "pipeline.fit_final_model",
         "pipeline.table", "report.sections", "report.render")
#: Layers (or spans) whose self time per op is reported as ``<name>.self_ms``.
SELF_TIMED = ("cli", "logistic", "firth", "linalg", "report.sections")


def _fit_info(result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _firth_info(args, result):
    dm = args[0]
    digest = hashlib.sha1(dm.X.tobytes() + dm.y.tobytes()).hexdigest()
    return dict(_fit_info(result), design=digest)


# Span name -> reads info from (args, result).
_OBSERVERS = {
    "logistic.fit_logistic": lambda args, result: _fit_info(result),
    "firth.fit_firth": _firth_info,
    "report.render": lambda args, result: {"bytes": len(result.encode("utf-8"))},
}


class Tracer:
    """Records one span list per operation; ``take`` hands it over."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "retailrisk" or name.startswith("retailrisk."))]
        for span_name, module_name, attr in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        stack, clock = self._stack, time.perf_counter
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = {"raised": type(exc).__name__}
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def take(self) -> list[list]:
        """Spans of the operation just finished; starts a fresh list."""
        spans, self.spans = self.spans, []
        self._stack.clear()
        return spans


def _outer(spans: list[list], i: int) -> bool:
    name, parent = spans[i][0], spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def summarize(ops: list[list[list]]) -> dict[str, float]:
    """Per-operation layer metrics from the span lists of ``ops`` operations."""
    n_ops = len(ops)
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    singular = 0
    fits: dict[str, list[dict]] = {"logistic.fit_logistic": [], "firth.fit_firth": []}
    designs = 0
    output_bytes = 0
    for spans in ops:
        children = [0.0] * len(spans)
        child_raised = [False] * len(spans)
        for name, start, end, parent, info in spans:
            if parent >= 0:
                children[parent] += end - start
                if info and info.get("raised") == "SingularMatrixError":
                    child_raised[parent] = True
        op_designs = set()
        for i, (name, start, end, parent, info) in enumerate(spans):
            duration = end - start
            layer = name.split(".", 1)[0]
            self_time[layer] = self_time.get(layer, 0.0) + duration - children[i]
            self_time[name] = self_time.get(name, 0.0) + duration - children[i]
            if _outer(spans, i):
                calls[name] = calls.get(name, 0) + 1
                inclusive[name] = inclusive.get(name, 0.0) + duration
            info = info or {}
            if info.get("raised") == "SingularMatrixError" and not child_raised[i]:
                singular += 1
            if name in fits and "iterations" in info:
                fits[name].append(info)
                if "design" in info:
                    op_designs.add(info["design"])
            output_bytes += info.get("bytes", 0)
        designs += len(op_designs)

    def per_op(value: float) -> float:
        return value / n_ops if n_ops else 0.0

    def mean(values) -> float:
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    metrics: dict[str, float] = {}
    for name in COUNTED:
        metrics[f"{name}.calls"] = per_op(calls.get(name, 0))
    for name in TIMED:
        metrics[f"{name}.ms"] = per_op(inclusive.get(name, 0.0)) * 1e3
    for name in SELF_TIMED:
        metrics[f"{name}.self_ms"] = per_op(self_time.get(name, 0.0)) * 1e3
    metrics["linalg.singular_raised"] = per_op(singular)
    logistic_fits, firth_fits = fits["logistic.fit_logistic"], fits["firth.fit_firth"]
    metrics["logistic.iterations_per_fit"] = mean(f["iterations"] for f in logistic_fits)
    metrics["logistic.unconverged_frac"] = mean(not f["converged"] for f in logistic_fits)
    metrics["firth.iterations_per_fit"] = mean(f["iterations"] for f in firth_fits)
    metrics["firth.unconverged_frac"] = mean(not f["converged"] for f in firth_fits)
    metrics["firth.useful_fit_ratio"] = designs / len(firth_fits) if firth_fits else 0.0
    metrics["report.output_bytes"] = per_op(output_bytes)
    return metrics
