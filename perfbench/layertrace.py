"""Span tracing of the smig layers, installed from outside the package.

The layers are the modules of ``src/smig``.  ``Tracer.install`` replaces
each layer's public entry points at the module attributes through which
other modules call them, so every call that crosses a layer boundary
records a span: name, start, end, parent span and request id, plus counts
taken from the arguments or the result.  Spans stay in memory until the
run ends; ``layer_metrics`` turns them into per-request self times and
counts.  A span's self time is its duration minus the durations of its
child spans (calls are synchronous, so children never overlap).

specfun functions are wrapped only where other modules bound them with
``from .specfun import ...``.  Inside specfun, ``hankel1_0`` runs its
Miller pass through ``_j_sequence``; that pass is the kernel's own time,
not a call across a layer boundary, so it stays in ``hankel1_0``'s span.
"""

import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("specfun", "em", "forward", "imaging", "structure", "fileio", "config", "cli")

ENTRY_POINTS = {
    "specfun": ("hankel1_0", "hankel1_sequence", "_j_sequence"),
    "em": ("antenna_array", "wavenumber", "lossless_wavenumber", "incident_field",
           "incident_field_many"),
    "forward": ("born_smatrix", "exact_disc_smatrix", "incident_coupling_smatrix",
                "contaminate_diagonal", "add_noise", "subtract"),
    "imaging": ("zero_diagonal", "svd", "select_rank", "image_full", "image_diag", "argmax"),
    "structure": ("validate_diag_identity", "structure_diag", "ideal_plane_wave_matrix",
                  "migration_response"),
    "fileio": ("write_sparams", "read_sparams", "write_map", "write_spectrum"),
    "config": ("parse_config", "apply_overrides", "with_seed", "config_hash", "build_medium",
               "build_array", "build_anomalies", "build_grid", "build_rank_policy",
               "build_imaging_wavenumber"),
    "cli": ("main",),
}

# Both map variants are one stage, "the map"; the private name loses its underscore.
_SPAN_NAMES = {
    "imaging.image_full": "imaging.map",
    "imaging.image_diag": "imaging.map",
    "specfun._j_sequence": "specfun.j_sequence",
}

# Arguments above this magnitude take hankel1_0's large-argument expansion.
# Fixed here, not read from the program, so the guard metric keeps its meaning.
ASYMPTOTIC_SWITCH = 25.0


def span_name(layer, function):
    name = "%s.%s" % (layer, function)
    return _SPAN_NAMES.get(name, name)


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


def _hankel_counts(tracer, args, result):
    z = np.asarray(args[0])
    if tracer.hankel_args is not None:
        tracer.hankel_args.append(z)
    return {"args": z.size, "asymptotic": int(np.count_nonzero(np.abs(z) > ASYMPTOTIC_SWITCH))}


def _map_counts(tracer, args, result):
    values = result.values
    return {"points": values.size, "rank_used": result.rank_used,
            "zeroed_points": int(np.count_nonzero(values == 0.0))}


_COUNTERS = {
    "specfun.hankel1_0": _hankel_counts,
    "em.incident_field_many": lambda tracer, args, result: {
        "distances": len(args[0]) * len(args[1])},
    "imaging.map": _map_counts,
    "fileio.write_map": lambda tracer, args, result: _file_bytes(args[1]),
    "fileio.write_sparams": lambda tracer, args, result: _file_bytes(args[1]),
    "fileio.read_sparams": lambda tracer, args, result: _file_bytes(args[0]),
}


@dataclass
class Span:
    name: str
    layer: str
    request: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans for calls into the smig layers while installed.

    Set ``request`` before each request so its spans share an id.  Set
    ``hankel_args`` to a list to keep the arguments of every hankel1_0 call.
    """

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.request = -1
        self.hankel_args = None
        self._stack = []
        self._patched = []

    def _wrap(self, layer, name, fn):
        counter = _COUNTERS.get(name)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = Span(name, layer, self.request, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for layer, functions in ENTRY_POINTS.items():
            for function in functions:
                original = getattr(self.modules[layer], function)
                wrapper = self._wrap(layer, span_name(layer, function), original)
                for module_name, module in self.modules.items():
                    if module_name == "specfun":  # calls inside specfun are kernel time
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans):
    """Self time of every span, in the order of ``spans``."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, child)]


# name -> unit; the order is the order of the report.
PER_LAYER_UNITS = {
    "specfun.self_s": "s",
    "specfun.hankel1_0.self_s": "s",
    "specfun.hankel1_0.args": "count",
    "specfun.hankel1_0.ns_per_arg": "ns",
    "specfun.hankel1_0.asymptotic_share": "ratio",
    "specfun.j_sequence.calls": "count",
    "specfun.j_sequence.self_s": "s",
    "specfun.hankel1_sequence.self_s": "s",
    "em.self_s": "s",
    "em.incident_field_many.self_s": "s",
    "em.incident_field_many.distances": "count",
    "em.incident_field.calls": "count",
    "forward.self_s": "s",
    "forward.exact_disc_smatrix.self_s": "s",
    "forward.exact_disc_smatrix.calls": "count",
    "forward.incident_coupling_smatrix.self_s": "s",
    "forward.born_smatrix.self_s": "s",
    "imaging.self_s": "s",
    "imaging.svd.self_s": "s",
    "imaging.svd.calls": "count",
    "imaging.map.self_s": "s",
    "imaging.map.points": "count",
    "imaging.map.rank_used": "count",
    "imaging.map.zeroed_points": "count",
    "structure.self_s": "s",
    "structure.structure_diag.calls": "count",
    "structure.validate_diag_identity.self_s": "s",
    "fileio.self_s": "s",
    "fileio.write_map.self_s": "s",
    "fileio.write_map.bytes": "B",
    "fileio.write_sparams.self_s": "s",
    "fileio.read_sparams.self_s": "s",
    "fileio.sparams.bytes": "B",
    "config.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans, requests):
    """Per-layer metrics of a traced run, each a mean per request.

    ``imaging.map.rank_used`` is the mean rank over map calls instead.
    ``trace.overhead_ratio`` needs the untraced times and is left out.
    """
    self_s = defaultdict(float)
    calls = Counter()
    counts = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        self_s[span.layer] += own
        self_s[span.name] += own
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts["%s.%s" % (span.name, key)] += value

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name.endswith(".self_s"):
            metrics[name] = self_s[name[: -len(".self_s")]] / requests
        elif name.endswith(".calls"):
            metrics[name] = calls[name[: -len(".calls")]] / requests
    metrics["specfun.hankel1_0.args"] = counts["specfun.hankel1_0.args"] / requests
    metrics["specfun.hankel1_0.ns_per_arg"] = 1e9 * ratio(
        self_s["specfun.hankel1_0"], counts["specfun.hankel1_0.args"])
    metrics["specfun.hankel1_0.asymptotic_share"] = ratio(
        counts["specfun.hankel1_0.asymptotic"], counts["specfun.hankel1_0.args"])
    metrics["em.incident_field_many.distances"] = (
        counts["em.incident_field_many.distances"] / requests)
    metrics["imaging.map.points"] = counts["imaging.map.points"] / requests
    metrics["imaging.map.rank_used"] = ratio(counts["imaging.map.rank_used"],
                                             calls["imaging.map"])
    metrics["imaging.map.zeroed_points"] = counts["imaging.map.zeroed_points"] / requests
    metrics["fileio.write_map.bytes"] = counts["fileio.write_map.bytes"] / requests
    metrics["fileio.sparams.bytes"] = (
        counts["fileio.write_sparams.bytes"] + counts["fileio.read_sparams.bytes"]) / requests
    return metrics
