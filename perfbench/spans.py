"""In-memory span tracer for the ccnet layers, installed from outside the package.

``install`` wraps every public function of ``ccnet.model``, ``ccnet.transfer``,
``ccnet.lyapunov``, ``ccnet.spectral`` and ``ccnet.records`` (their
``__all__``), plus ``ccnet.cli.main`` as the root span.  The wrapper replaces
the function wherever a ``ccnet`` module holds a reference to it: at its
definition, at the ``ccnet.cli`` import site, and at the other modules'
import sites (``spectral`` calls ``transfer.propagate`` through its own
binding).  ``uninstall`` puts the originals back, so untraced rounds run the
program unchanged.

A span records name, start, end, parent span and request (one
``ccnet.cli.main`` call).  A few spans also carry counts taken at the
boundary where the work happens (chain steps, layer steps, matrix size, rows
and bytes written).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

LAYERS = ("model", "transfer", "lyapunov", "spectral", "records")


def _count_cocycle(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return {"chain_steps": config.n_steps + config.effective_burn_in, "M": config.M}


def _count_propagate(args, kwargs, result):
    return {"layer_steps": 2 * result.L}


def _count_eig(args, kwargs, result):
    return {"dim": result.dim, "vectors": result.eigenvectors is not None}


def _count_emit(args, kwargs, result):
    records = args[0] if args else kwargs["records"]
    path = args[2] if len(args) > 2 else kwargs["path"]
    return {
        "rows": sum(len(record.rows) for record in records),
        "bytes": os.path.getsize(path),
    }


# counts taken at the span boundary, keyed by span name
COUNTERS = {
    "lyapunov.lyapunov_spectrum": _count_cocycle,
    "transfer.propagate": _count_propagate,
    "spectral.eigendecompose": _count_eig,
    "records.emit": _count_emit,
}


class Tracer:
    """Collects spans while installed; each span is a tuple
    (name, start, end, parent index, request, counts or None)."""

    def __init__(self):
        self.spans: list = []
        self.request = 0
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            counts = counter(args, kwargs, result) if counter else None
            self.spans[index] = (name, start, end, parent, self.request, counts)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions and ``cli.main`` in every ccnet module."""
        layers = {layer: importlib.import_module(f"ccnet.{layer}") for layer in LAYERS}
        cli = importlib.import_module("ccnet.cli")
        wrapped = {cli.main: self.wrap("cli.main", cli.main)}
        for layer, module in layers.items():
            for public in module.__all__:
                obj = getattr(module, public)
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{public}", obj)
        for module in [importlib.import_module("ccnet"), cli, *layers.values()]:
            for key, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patched.append((module, key, value))
                    setattr(module, key, wrapped[value])

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    @staticmethod
    def write_spans(spans, path) -> None:
        """Write spans as JSON lines, times relative to the first span."""
        origin = spans[0][1] if spans else 0.0
        with open(path, "w") as fh:
            for index, (name, start, end, parent, request, counts) in enumerate(spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_s": start - origin,
                            "end_s": end - origin,
                            "parent": parent,
                            "request": request,
                            "counts": counts,
                        }
                    )
                    + "\n"
                )


def _eig_gflop(dim: int, vectors: bool) -> float:
    # Golub & Van Loan's counts for the real QR algorithm, 10 n^3 for
    # eigenvalues alone and 25 n^3 with eigenvectors, times 4 for complex
    # arithmetic: a nominal operation count, not a measurement
    return 4.0 * (25.0 if vectors else 10.0) * dim**3 / 1e9


def layer_metrics(spans) -> dict:
    """Per-layer times and counts for one batch of spans (one traced round)."""
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    steps_by_m = defaultdict(int)
    time_by_m = defaultdict(float)
    totals = defaultdict(float)
    for index, (name, start, end, parent, _, counts) in enumerate(spans):
        duration = end - start
        inclusive[name] += duration
        own = duration - child_time[index]
        self_time[name] += own
        layer_self[name.split(".")[0]] += own
        calls[name] += 1
        if name == "lyapunov.lyapunov_spectrum":
            steps_by_m[counts["M"]] += counts["chain_steps"]
            time_by_m[counts["M"]] += duration
            totals["chain_steps"] += counts["chain_steps"]
        elif name == "transfer.propagate":
            totals["layer_steps"] += counts["layer_steps"]
        elif name == "spectral.eigendecompose":
            kind = "eigvecs" if counts["vectors"] else "eigvals"
            inclusive[kind] += duration
            calls[kind] += 1
            totals["gflop"] += _eig_gflop(counts["dim"], counts["vectors"])
        elif name == "records.emit":
            totals["rows"] += counts["rows"]
            totals["bytes"] += counts["bytes"]

    def per_step(seconds, steps):
        return 1e6 * seconds / steps if steps else 0.0

    metrics = {
        "cli.self_s": (layer_self["cli"], "s"),
        "model.self_s": (layer_self["model"], "s"),
        "transfer.self_s": (layer_self["transfer"], "s"),
        "lyapunov.self_s": (layer_self["lyapunov"], "s"),
        "spectral.self_s": (layer_self["spectral"], "s"),
        "records.self_s": (layer_self["records"], "s"),
        "lyapunov.spectrum_s": (inclusive["lyapunov.lyapunov_spectrum"], "s"),
        "lyapunov.chain_steps": (totals["chain_steps"], "count"),
        "transfer.propagate_s": (inclusive["transfer.propagate"], "s"),
        "transfer.propagate_calls": (calls["transfer.propagate"], "count"),
        "transfer.us_per_layer_step": (
            per_step(inclusive["transfer.propagate"], totals["layer_steps"]),
            "us",
        ),
        "spectral.parity_ops_s": (inclusive["spectral.build_parity_operators"], "s"),
        "spectral.det_identity_self_s": (
            self_time["spectral.determinant_identity_residual"],
            "s",
        ),
        "spectral.eigvals_s": (inclusive["eigvals"], "s"),
        "spectral.eigvals_calls": (calls["eigvals"], "count"),
        "spectral.eigvecs_s": (inclusive["eigvecs"], "s"),
        "spectral.eigvecs_calls": (calls["eigvecs"], "count"),
        "spectral.eig_gflop_computed": (totals["gflop"], "GFLOP"),
        "spectral.dos_moments_self_s": (self_time["spectral.dos_moments"], "s"),
        "spectral.decay_fit_s": (inclusive["spectral.eigenvector_decay_fit"], "s"),
        "spectral.decay_fit_calls": (calls["spectral.eigenvector_decay_fit"], "count"),
        "model.build_operator_s": (inclusive["model.build_cylinder_operator"], "s"),
        "model.build_operator_calls": (calls["model.build_cylinder_operator"], "count"),
        "model.phase_field_s": (inclusive["model.sample_phase_field"], "s"),
        "records.emit_s": (inclusive["records.emit"], "s"),
        "records.rows": (totals["rows"], "count"),
        "records.bytes_written": (totals["bytes"], "bytes"),
        "trace.spans": (len(spans), "count"),
    }
    for m in (4, 8, 16):
        metrics[f"lyapunov.us_per_step.M{m}"] = (per_step(time_by_m[m], steps_by_m[m]), "us")
    return metrics
