"""Spans and counters recorded around epsim's public entry points, from
outside the program.

``Tracer.install`` rebinds every entry point listed in ``ENTRY_POINTS`` to a
wrapper in each ``epsim`` namespace that holds it (``epsim``, ``epsim.cli``,
``epsim.protocol``, ...), and patches ``__init__`` of the listed classes, so
calls between modules are seen as well as calls from the benchmark.  A
wrapper records a span only while a job span is open, so the benchmark's own
output checks, which call the same functions, stay out of the trace.
``uninstall`` restores the original objects.  Spans stay in memory; self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

JOB_SPAN = "job"

# layer -> (module, public entry points).  Classes are traced through __init__.
ENTRY_POINTS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cli": ("epsim.cli", ("main",)),
    "statefile": ("epsim.statefile", ("load_state", "dump_json")),
    "fock": ("epsim.fock", ("PureState", "tensor_product", "partial_trace",
                            "DensityOperator", "von_neumann_entropy", "trace_distance")),
    "sectors": ("epsim.sectors", ("sector_decompose", "particle_entanglement",
                                  "register_sector_entanglement", "register_sector_table")),
    "protocol": ("epsim.protocol", ("run_transfer", "transfer_final_state",
                                    "occupation_cnot", "hiding_operation",
                                    "phase_grid_register_state",
                                    "equal_different_measurement",
                                    "coherent_coefficients")),
    "phase": ("epsim.phase", ("canonical_phase_distribution", "resolution_kernel",
                              "visibility", "apply_phase_difference_povm",
                              "concurrence_ef_oracle")),
    "uncertainty": ("epsim.uncertainty", ("PhaseOperatorSpace", "random_uncorrelated_pair",
                                          "coherent_pair_state", "robertson_checks",
                                          "visibility_bound_check")),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, (_, names) in ENTRY_POINTS.items()
                   for name in names)

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(starts: list[float], ends: list[float], parents: list[int]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            clipped = (max(starts[i], starts[parent]), min(ends[i], ends[parent]))
            if clipped[1] > clipped[0]:
                children.setdefault(parent, []).append(clipped)
    return [ends[i] - starts[i] - _covered(children.get(i, []))
            for i in range(len(starts))]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.dim_max = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def _wrap(self, name: str, fn, on_return=None, on_error=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            self.end(idx)
            if on_return is not None:
                on_return(result, args)
            return result

        return wrapper

    # counters --------------------------------------------------------------

    def _hooks(self) -> dict[str, dict]:
        counts = self.counts
        physicality_error = importlib.import_module("epsim.uncertainty").PhysicalityError

        def pure_terms(_, args):
            counts["fock.PureState.terms"] += len(args[0].amplitudes)

        def density_dim(_, args):
            self.dim_max = max(self.dim_max, len(args[0].basis))

        def final_terms(result, _):
            counts["protocol.final_terms"] += len(result.amplitudes)

        def register_entries(result, _):
            counts["protocol.register_entries"] += len(result.basis) ** 2

        def moments(result, _):
            counts["phase.moments_computed"] += len(result.moments)

        def povm_terms(_, args):
            counts["phase.povm_terms"] += len(args[0].amplitudes)

        def drawn(_, __):
            counts["uncertainty.drawn"] += 1

        def resampled(exc):
            if isinstance(exc, physicality_error):
                counts["uncertainty.resampled"] += 1

        return {
            "fock.PureState": {"on_return": pure_terms},
            "fock.DensityOperator": {"on_return": density_dim},
            "protocol.transfer_final_state": {"on_return": final_terms},
            "protocol.run_transfer": {"on_return": register_entries},
            "phase.canonical_phase_distribution": {"on_return": moments},
            "phase.apply_phase_difference_povm": {"on_return": povm_terms},
            "uncertainty.random_uncorrelated_pair": {"on_return": drawn},
            "uncertainty.robertson_checks": {"on_error": resampled},
            "uncertainty.visibility_bound_check": {"on_error": resampled},
        }

    # installation ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "epsim" or name.startswith("epsim.")]
        hooks = self._hooks()
        for layer, (module_name, names) in ENTRY_POINTS.items():
            module = importlib.import_module(module_name)
            for name in names:
                span = f"{layer}.{name}"
                obj = getattr(module, name)
                if isinstance(obj, type):
                    original = obj.__dict__["__init__"]
                    self._patch(obj, "__init__",
                                self._wrap(span, original, **hooks.get(span, {})))
                    continue
                wrapper = self._wrap(span, obj, **hooks.get(span, {}))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # summary -------------------------------------------------------------------

    def metrics(self, rounds: int, overhead_ratio: float,
                renormalized_per_round: float) -> dict[str, dict]:
        """Per-layer metrics, averaged over ``rounds`` traced rounds."""
        selfs = self_times(self.starts, self.ends, self.parents)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for name, value in zip(self.names, selfs):
            calls[name] += 1
            self_s[name] += value
        job_s = sum(e - s for n, s, e in zip(self.names, self.starts, self.ends)
                    if n == JOB_SPAN)
        out: dict[str, dict] = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for span in SPAN_NAMES:
            put(f"{span}.calls", calls[span] / rounds, "count")
            put(f"{span}.self_s", self_s[span] / rounds, "s")
        layer_total = 0.0
        for layer in ENTRY_POINTS:
            layer_s = sum(self_s[span] for span in SPAN_NAMES
                          if span.startswith(layer + "."))
            layer_total += layer_s
            put(f"layer.{layer}.self_s", layer_s / rounds, "s")
            put(f"layer.{layer}.share", layer_s / job_s if job_s else 0.0, "ratio")
        counts = self.counts
        put("statefile.renormalized", renormalized_per_round, "count")
        put("fock.PureState.terms", counts["fock.PureState.terms"] / rounds, "count")
        put("fock.DensityOperator.dim_max", self.dim_max, "count")
        put("protocol.final_terms", counts["protocol.final_terms"] / rounds, "count")
        entries = counts["protocol.register_entries"]
        put("protocol.terms_per_output_entry",
            counts["protocol.final_terms"] / entries if entries else 0.0, "ratio")
        put("phase.moments_computed", counts["phase.moments_computed"] / rounds, "count")
        put("phase.povm_terms", counts["phase.povm_terms"] / rounds, "count")
        drawn_total = counts["uncertainty.drawn"]
        put("uncertainty.resample_ratio",
            counts["uncertainty.resampled"] / drawn_total if drawn_total else 0.0, "ratio")
        put("traced_job_s", job_s / rounds, "s")
        put("layer_coverage", layer_total / job_s if job_s else 0.0, "ratio")
        put("trace_overhead_ratio", overhead_ratio, "ratio")
        return out


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every (name, unit) the traced run reports, in report order."""
    tracer = Tracer()
    tracer.names, tracer.starts, tracer.ends, tracer.parents = [JOB_SPAN], [0.0], [1.0], [-1]
    return [(name, m["unit"]) for name, m in tracer.metrics(1, 0.0, 0.0).items()]
