"""Per-layer tracing from outside the program.

Tracer.install() replaces qgame's public functions with timing wrappers,
on their defining module and on every other qgame module that imported
them by name, so nested calls are seen as well.  Each call records its
duration, the time spent in directly nested traced calls, and the
operation it belongs to.  A function a later version of qgame no longer
has is skipped, and the metrics built on it are left out of the report.
"""

from __future__ import annotations

import functools
import importlib
import resource
import statistics
import sys
import time
from collections import defaultdict

# Span name -> (module, function).  A callable span name is given the
# call's arguments and returns the span name to record.
LAYERS = {
    "cli.analyze": ("cli", "cmd_analyze"),
    "gates.load_gate_file": ("gates", "load_gate_file"),
    "gates.gate_to_json_dict": ("gates", "gate_to_json_dict"),
    "gates.gate_from_json_dict": ("gates", "gate_from_json_dict"),
    "equilibria.search": ("equilibria", "search_equilibria"),
    "equilibria.verify": ("equilibria", "verify_equilibrium"),
    "equilibria.response_coefficients": ("equilibria", "response_coefficients"),
    "game.outcome": ("game", "outcome"),
    "game.payoffs": ("game", "payoffs"),
    "qcore.tensor": ("qcore", "tensor"),
    "qcore.apply": ("qcore", "apply"),
    "qcore.unitarity_deviation": ("qcore", "unitarity_deviation"),
    "mechanism.derive_constraints": ("mechanism", "derive_constraints"),
    "mechanism.synthesize": ("mechanism", "synthesize_mechanism"),
    "mechanism.certify": ("mechanism", "certify_mechanism"),
}

MODULES = ("qgame", "qgame.qcore", "qgame.game", "qgame.gates", "qgame.equilibria", "qgame.mechanism", "qgame.cli")

# Per-layer metric -> (unit, span it is computed from).
PER_LAYER = {
    "cli.analyze.ms": ("ms", "cli.analyze"),
    "cli.analyze.self_ms": ("ms", "cli.analyze"),
    "cli.analyze.output_kb": ("KB", "cli.analyze"),
    "gates.load_gate_file.us": ("us", "gates.load_gate_file"),
    "gates.gate_to_json_dict.us": ("us", "gates.gate_to_json_dict"),
    "gates.gate_from_json_dict.us": ("us", "gates.gate_from_json_dict"),
    "equilibria.search.ms": ("ms", "equilibria.search"),
    "equilibria.search.self_ms": ("ms", "equilibria.search"),
    "equilibria.search.recert_ms": ("ms", "equilibria.search"),
    "equilibria.search.pairs": ("count", "equilibria.search"),
    "equilibria.search.mpairs_per_s": ("Mpairs/s", "equilibria.search"),
    "equilibria.search.results": ("count", "equilibria.search"),
    "equilibria.search.sys_ms": ("ms", "equilibria.search"),
    "equilibria.search.minor_faults": ("count", "equilibria.search"),
    "equilibria.verify.us": ("us", "equilibria.verify"),
    "equilibria.verify.self_us": ("us", "equilibria.verify"),
    "equilibria.verify.calls": ("count", "equilibria.verify"),
    "equilibria.response_coefficients.us": ("us", "equilibria.response_coefficients"),
    "game.outcome.us": ("us", "game.outcome"),
    "game.payoffs.us": ("us", "game.payoffs"),
    "qcore.tensor.us": ("us", "qcore.tensor"),
    "qcore.apply.us": ("us", "qcore.apply"),
    "qcore.unitarity_deviation.us": ("us", "qcore.unitarity_deviation"),
    "qcore.unitarity_deviation.calls": ("count", "qcore.unitarity_deviation"),
    "mechanism.derive_constraints.us": ("us", "mechanism.derive_constraints"),
    "mechanism.synthesize_strict.us": ("us", "mechanism.synthesize"),
    "mechanism.synthesize_paper_bound.us": ("us", "mechanism.synthesize"),
    "mechanism.certify.us": ("us", "mechanism.certify"),
}

SPAN_KEEP = 20000  # spans kept for the trace file; aggregates cover every call


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Tracer:
    def __init__(self):
        self.installed: dict[str, object] = {}
        self._stack: list[dict] = []
        self.op = -1
        self._op_calls: dict[str, int] = defaultdict(int)
        self.calls_per_op: dict[str, list[int]] = defaultdict(list)
        self.duration_ns: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, list[int]] = defaultdict(list)
        self.detail: dict[str, list[dict]] = defaultdict(list)
        self.spans: list[tuple] = []

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in MODULES}
        for span, (module_name, attr) in LAYERS.items():
            fn = getattr(modules[f"qgame.{module_name}"], attr, None)
            if fn is None:
                print(f"trace: qgame.{module_name}.{attr} not found; its metrics are left out", file=sys.stderr)
                continue
            self.installed[span] = fn
            wrapper = self._wrap(span, fn)
            for module in modules.values():
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)

    def begin_op(self) -> None:
        self.op += 1
        self._op_calls.clear()

    def end_op(self) -> None:
        for span in self.installed:
            self.calls_per_op[span].append(self._op_calls.get(span, 0))

    def _wrap(self, span: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span
            if span == "mechanism.synthesize":
                mode = args[1] if len(args) > 1 else kwargs.get("mode")
                name = f"mechanism.synthesize_{mode}"
            frame = {"children": defaultdict(int)}
            if span == "equilibria.search":
                frame["rusage"] = resource.getrusage(resource.RUSAGE_SELF)
            elif span == "cli.analyze":
                frame["out_start"] = sys.stdout.tell()
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
            duration = end - start
            if parent is not None:
                parent["children"][name] += duration
            tracer._record(span, name, start, end, frame, args, result)
            return result

        return wrapper

    def _record(self, span: str, name: str, start: int, end: int, frame: dict, args, result) -> None:
        duration = end - start
        self._op_calls[span] += 1
        self.duration_ns[name].append(duration)
        self.self_ns[name].append(duration - sum(frame["children"].values()))
        if len(self.spans) < SPAN_KEEP:
            self.spans.append((name, self.op, start, end, len(self._stack)))
        if span == "equilibria.search":
            before, after = frame["rusage"], resource.getrusage(resource.RUSAGE_SELF)
            grid = args[1]
            self.detail[span].append({
                "duration_ns": duration,
                "recert_ns": frame["children"]["equilibria.verify"],
                "pairs": (grid.theta_points * grid.phi_points) ** 2,
                "results": len(result),
                "sys_ms": (after.ru_stime - before.ru_stime) * 1e3,
                "minor_faults": after.ru_minflt - before.ru_minflt,
            })
        elif span == "cli.analyze":
            self.detail[span].append({
                "duration_ns": duration,
                "search_ns": frame["children"]["equilibria.search"],
                "output_kb": (sys.stdout.tell() - frame["out_start"]) / 1024.0,
            })

    def metrics(self) -> dict[str, dict]:
        """Per-layer medians; 0 for a layer the workload never called."""
        us, ms = 1e-3, 1e-6
        search = self.detail["equilibria.search"]
        analyze = self.detail["cli.analyze"]
        values = {
            "cli.analyze.ms": _median(self.duration_ns["cli.analyze"]) * ms,
            "cli.analyze.self_ms": _median([d["duration_ns"] - d["search_ns"] for d in analyze]) * ms,
            "cli.analyze.output_kb": _median([d["output_kb"] for d in analyze]),
            "equilibria.search.ms": _median(self.duration_ns["equilibria.search"]) * ms,
            "equilibria.search.self_ms": _median(self.self_ns["equilibria.search"]) * ms,
            "equilibria.search.recert_ms": _median([d["recert_ns"] for d in search]) * ms,
            "equilibria.search.pairs": _median([d["pairs"] for d in search]),
            "equilibria.search.mpairs_per_s": _median([d["pairs"] / d["duration_ns"] * 1e3 for d in search]),
            "equilibria.search.results": _median([d["results"] for d in search]),
            "equilibria.search.sys_ms": _median([d["sys_ms"] for d in search]),
            "equilibria.search.minor_faults": _median([d["minor_faults"] for d in search]),
            "equilibria.verify.self_us": _median(self.self_ns["equilibria.verify"]) * us,
            "equilibria.verify.calls": _median(self.calls_per_op["equilibria.verify"]),
            "qcore.unitarity_deviation.calls": _median(self.calls_per_op["qcore.unitarity_deviation"]),
        }
        for metric, (unit, span) in PER_LAYER.items():
            if metric not in values and unit == "us":
                values[metric] = _median(self.duration_ns[metric[: -len(".us")]]) * us
        return {
            metric: {"value": values[metric], "unit": unit}
            for metric, (unit, span) in PER_LAYER.items()
            if span in self.installed
        }
