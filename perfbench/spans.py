"""Span tracing around framekit's layer boundaries, and the per-layer summary.

The tracer wraps an explicit list of public functions from the outside: each
is patched in its defining module and in every ``framekit.*`` namespace that
imported it by name, and the ``numpy.linalg`` eigensolvers and SVD are
patched as attributes.  Nothing is added to ``src/``.

A span records name, start, end, parent span and job id; spans stay in memory
and are written once, as JSON lines, when the traced run ends.  A layer's self
time is its span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Boundary:
    module: str
    name: str
    # Optional (args, kwargs, result) -> {counter: value} recorded with the span.
    extra: Callable | None = None
    # Count calls only, without a span (for cheap, very frequent calls).
    count_only: bool = False
    # The function recurses through its module global: only outermost calls
    # get a span, and nested calls run the original directly.
    outermost: bool = False


def _flops(args, kwargs, result):
    system = args[0]
    return {"flops": 8 * len(system) * system.n**2}


def _eig_n3(args, kwargs, result):
    return {"n3": int(args[0].shape[-1]) ** 3}


def _obstructed(args, kwargs, result):
    return {"obstructed": int(math.isinf(result.value) and result.obstruction is not None)}


def _atoms(args, kwargs, result):
    params = args[0]
    generated = len(params.a_list) * len(params.k_values()) * len(params.c_list)
    return {"generated": generated, "kept": len(result)}


def _trials(args, kwargs, result):
    return {"trials": result.trials, "failures": len(result.failures)}


def _assertions(args, kwargs, result):
    return {"assertions": len(result.assertions), "failures": sum(not r.passed for r in result.assertions)}


# numerics, signal_space and frame_core have no __all__, so the list is explicit.
BOUNDARIES = (
    Boundary("framekit.cli", "main"),
    Boundary("framekit.cli", "to_jsonable", outermost=True),
    Boundary("framekit.signal_space", "operator_of"),
    Boundary("framekit.signal_space", "signal_from_json"),
    Boundary("framekit.signal_space", "translate", count_only=True),
    Boundary("framekit.signal_space", "modulate", count_only=True),
    Boundary("framekit.signal_space", "dilate", count_only=True),
    Boundary("framekit.frame_core", "system_from_json"),
    Boundary("framekit.frame_core", "system_to_json"),
    Boundary("framekit.frame_core", "frame_operator", extra=_flops),
    Boundary("framekit.frame_core", "optimal_bounds"),
    Boundary("framekit.numerics", "operator_from_json"),
    Boundary("framekit.numerics", "herm_eig"),
    Boundary("framekit.numerics", "op_norm"),
    Boundary("framekit.numerics", "pinv"),
    Boundary("framekit.numerics", "range_inclusion"),
    Boundary("numpy.linalg", "eigh", extra=_eig_n3),
    Boundary("numpy.linalg", "eigvalsh", extra=_eig_n3),
    Boundary("numpy.linalg", "svd"),
    Boundary("framekit.operator_theory", "pencil_inf"),
    Boundary("framekit.operator_theory", "pencil_sup", extra=_obstructed),
    Boundary("framekit.operator_theory", "hyponormality"),
    Boundary("framekit.operator_theory", "relative_hyponormality"),
    Boundary("framekit.operator_theory", "douglas_check"),
    Boundary("framekit.theta_frame", "check_theta_frame"),
    Boundary("framekit.wavepacket", "generate_system", extra=_atoms),
    Boundary("framekit.wavepacket", "finite_sum_system"),
    Boundary("framekit.wavepacket", "partition_domination_check"),
    Boundary("framekit.wavepacket", "finite_sum_criterion_check"),
    Boundary("framekit.wavepacket", "synthesis_criterion_check"),
    Boundary("framekit.suites", "run_suite", extra=_trials),
    Boundary("framekit.registry", "run_case", extra=_assertions),
)


class Tracer:
    """Installs and removes the boundary wrappers; collects spans in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job, extra]
        self.counts: dict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span_wrapper(self, b: Boundary, fn, home):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            span = [b.name if b.module == "numpy.linalg" else f"{b.module}.{b.name}"]
            span += [0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.job, None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            if b.outermost:
                setattr(home, b.name, fn)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if b.outermost:
                    setattr(home, b.name, wrapper)
            if b.extra is not None:
                span[5] = b.extra(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, b: Boundary, fn):
        counts = self.counts
        key = f"{b.module}.{b.name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "framekit" or n.startswith("framekit.")]
        for b in BOUNDARIES:
            home = importlib.import_module(b.module)
            fn = getattr(home, b.name)
            if b.count_only:
                wrapper = self._count_wrapper(b, fn)
            else:
                wrapper = self._span_wrapper(b, fn, home)
            targets = [home] + [m for m in namespaces if m is not home and getattr(m, b.name, None) is fn]
            for target in targets:
                self._patches.append((target, b.name, fn))
                setattr(target, b.name, wrapper)

    def uninstall(self) -> None:
        for target, name, fn in reversed(self._patches):
            setattr(target, name, fn)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps(["#counts", dict(self.counts)]) + "\n")


def read_spans(path: str):
    spans, counts = [], {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            if row[0] == "#counts":
                counts = row[1]
            else:
                spans.append(row)
    return spans, counts


# Per-layer metric names and units.  Times are busy seconds, or self seconds
# where the name says "self".  Times, counts and bytes are summed over one
# pass of the workload's job list; "ratio" metrics are shares over the run.
PER_LAYER_UNITS = {
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.to_jsonable_s": "s",
    "cli.bytes_in": "bytes",
    "cli.bytes_out": "bytes",
    "signal_space.operator_of_s": "s",
    "signal_space.operator_of_calls": "count",
    "signal_space.signal_from_json_s": "s",
    "signal_space.grid_op_calls": "count",
    "frame_core.system_from_json_s": "s",
    "frame_core.system_to_json_s": "s",
    "frame_core.frame_operator_s": "s",
    "frame_core.frame_operator_calls": "count",
    "frame_core.frame_operator_flops": "flop",
    "frame_core.optimal_bounds_s": "s",
    "numerics.operator_from_json_s": "s",
    "numerics.herm_eig_s": "s",
    "numerics.op_norm_s": "s",
    "numerics.op_norm_calls": "count",
    "numerics.pinv_s": "s",
    "numerics.pinv_calls": "count",
    "numerics.range_inclusion_s": "s",
    "numerics.lapack.eigh_calls": "count",
    "numerics.lapack.eigh_s": "s",
    "numerics.lapack.eigh_n3": "count",
    "numerics.lapack.svd_calls": "count",
    "numerics.lapack.svd_s": "s",
    "operator_theory.pencil_inf_s": "s",
    "operator_theory.pencil_inf_calls": "count",
    "operator_theory.pencil_sup_s": "s",
    "operator_theory.pencil_sup_calls": "count",
    "operator_theory.pencil_sup_obstructed_frac": "ratio",
    "operator_theory.hyponormality_s": "s",
    "operator_theory.hyponormality_calls": "count",
    "operator_theory.relative_hyponormality_s": "s",
    "operator_theory.douglas_check_s": "s",
    "theta_frame.check_theta_frame_s": "s",
    "theta_frame.check_theta_frame_calls": "count",
    "theta_frame.check_theta_frame_self_s": "s",
    "wavepacket.generate_system_s": "s",
    "wavepacket.finite_sum_system_s": "s",
    "wavepacket.partition_domination_check_s": "s",
    "wavepacket.finite_sum_criterion_check_s": "s",
    "wavepacket.synthesis_criterion_check_s": "s",
    "wavepacket.atoms_generated": "count",
    "wavepacket.atoms_kept": "count",
    "wavepacket.dedupe_keep_ratio": "ratio",
    "suites.run_suite_s": "s",
    "suites.trials": "count",
    "suites.trial_failures": "count",
    "registry.run_case_s": "s",
    "registry.assertions": "count",
    "registry.assertion_failures": "count",
    "trace.overhead_frac": "ratio",
}


def summarise(
    spans, counts, bytes_in: int, bytes_out: int, untraced_s: float, traced_s: float, passes: float
) -> dict:
    """Turn spans and counters into the per-layer metrics (name -> value).

    Sums are given per pass of the workload's job list, so runs that get
    through more passes in their time still compare with each other.
    """
    busy = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)  # time covered by direct children, per span index
    extra = defaultdict(float)
    for span in spans:
        name, start, end, parent = span[0], span[1], span[2], span[3]
        busy[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
        for key, value in (span[5] or {}).items():
            extra[f"{name}:{key}"] += value

    def self_time(name):
        return sum(s[2] - s[1] - child[i] for i, s in enumerate(spans) if s[0] == name)

    def frac(num, den):
        return num / den if den else 0.0

    fk = "framekit."
    m = {
        "cli.main_s": busy[fk + "cli.main"],
        "cli.self_s": self_time(fk + "cli.main"),
        "cli.to_jsonable_s": busy[fk + "cli.to_jsonable"],
        "cli.bytes_in": bytes_in,
        "cli.bytes_out": bytes_out,
        "signal_space.operator_of_s": busy[fk + "signal_space.operator_of"],
        "signal_space.operator_of_calls": calls[fk + "signal_space.operator_of"],
        "signal_space.signal_from_json_s": busy[fk + "signal_space.signal_from_json"],
        "signal_space.grid_op_calls": sum(
            counts.get(fk + f"signal_space.{op}", 0) for op in ("translate", "modulate", "dilate")
        ),
        "frame_core.system_from_json_s": busy[fk + "frame_core.system_from_json"],
        "frame_core.system_to_json_s": busy[fk + "frame_core.system_to_json"],
        "frame_core.frame_operator_s": busy[fk + "frame_core.frame_operator"],
        "frame_core.frame_operator_calls": calls[fk + "frame_core.frame_operator"],
        "frame_core.frame_operator_flops": extra[fk + "frame_core.frame_operator:flops"],
        "frame_core.optimal_bounds_s": busy[fk + "frame_core.optimal_bounds"],
        "numerics.operator_from_json_s": busy[fk + "numerics.operator_from_json"],
        "numerics.herm_eig_s": busy[fk + "numerics.herm_eig"],
        "numerics.op_norm_s": busy[fk + "numerics.op_norm"],
        "numerics.op_norm_calls": calls[fk + "numerics.op_norm"],
        "numerics.pinv_s": busy[fk + "numerics.pinv"],
        "numerics.pinv_calls": calls[fk + "numerics.pinv"],
        "numerics.range_inclusion_s": busy[fk + "numerics.range_inclusion"],
        "numerics.lapack.eigh_calls": calls["eigh"] + calls["eigvalsh"],
        "numerics.lapack.eigh_s": busy["eigh"] + busy["eigvalsh"],
        "numerics.lapack.eigh_n3": extra["eigh:n3"] + extra["eigvalsh:n3"],
        "numerics.lapack.svd_calls": calls["svd"],
        "numerics.lapack.svd_s": busy["svd"],
        "operator_theory.pencil_inf_s": busy[fk + "operator_theory.pencil_inf"],
        "operator_theory.pencil_inf_calls": calls[fk + "operator_theory.pencil_inf"],
        "operator_theory.pencil_sup_s": busy[fk + "operator_theory.pencil_sup"],
        "operator_theory.pencil_sup_calls": calls[fk + "operator_theory.pencil_sup"],
        "operator_theory.pencil_sup_obstructed_frac": frac(
            extra[fk + "operator_theory.pencil_sup:obstructed"], calls[fk + "operator_theory.pencil_sup"]
        ),
        "operator_theory.hyponormality_s": busy[fk + "operator_theory.hyponormality"],
        "operator_theory.hyponormality_calls": calls[fk + "operator_theory.hyponormality"],
        "operator_theory.relative_hyponormality_s": busy[fk + "operator_theory.relative_hyponormality"],
        "operator_theory.douglas_check_s": busy[fk + "operator_theory.douglas_check"],
        "theta_frame.check_theta_frame_s": busy[fk + "theta_frame.check_theta_frame"],
        "theta_frame.check_theta_frame_calls": calls[fk + "theta_frame.check_theta_frame"],
        "theta_frame.check_theta_frame_self_s": self_time(fk + "theta_frame.check_theta_frame"),
        "wavepacket.generate_system_s": busy[fk + "wavepacket.generate_system"],
        "wavepacket.finite_sum_system_s": busy[fk + "wavepacket.finite_sum_system"],
        "wavepacket.partition_domination_check_s": busy[fk + "wavepacket.partition_domination_check"],
        "wavepacket.finite_sum_criterion_check_s": busy[fk + "wavepacket.finite_sum_criterion_check"],
        "wavepacket.synthesis_criterion_check_s": busy[fk + "wavepacket.synthesis_criterion_check"],
        "wavepacket.atoms_generated": extra[fk + "wavepacket.generate_system:generated"],
        "wavepacket.atoms_kept": extra[fk + "wavepacket.generate_system:kept"],
        "suites.run_suite_s": busy[fk + "suites.run_suite"],
        "suites.trials": extra[fk + "suites.run_suite:trials"],
        "suites.trial_failures": extra[fk + "suites.run_suite:failures"],
        "registry.run_case_s": busy[fk + "registry.run_case"],
        "registry.assertions": extra[fk + "registry.run_case:assertions"],
        "registry.assertion_failures": extra[fk + "registry.run_case:failures"],
        "trace.overhead_frac": frac(traced_s - untraced_s, untraced_s),
    }
    m = {name: value if PER_LAYER_UNITS[name] == "ratio" else value / passes for name, value in m.items()}
    m["wavepacket.dedupe_keep_ratio"] = frac(m["wavepacket.atoms_kept"], m["wavepacket.atoms_generated"])
    return m
