"""Spans around dropcap's layer entry points, kept in memory, and their rollup.

Nothing under ``src/`` knows about this.  ``Tracer.installed()`` wraps
each layer's public entry points from the outside, under every name a
``dropcap`` module holds them by (``dropcap.instability.discretize`` is
the same function as ``dropcap.clouds.discretize`` and gets the same
wrapper), and puts the originals back on exit.  A span records its
name, start, end, parent span and problem id, plus the counts its layer
reports at that boundary.  ``rollup`` turns spans into the
``<module>.<metric>`` numbers of the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time


def _n_nodes(span, args, kwargs, result):
    span["nodes"] = result.n_nodes


def _kernel_entries(span, args, kwargs, result):
    span["entries"] = int(getattr(result, "size", 1))


def _operator_entries(span, args, kwargs, result):
    span["entries"] = result.n_nodes ** 2


def _equilibrium_counts(span, args, kwargs, result):
    span["iterations"] = result.iterations
    span["active_fraction"] = result.active_fraction
    span["kkt_residual"] = result.kkt_residual


def _el_residual(span, args, kwargs, result):
    span["el_residual"] = result.el_residual


# layer -> (module, entry points, hook recording counts at the boundary).
# A dotted entry point is a method on a class of that module.
LAYERS = {
    "clouds": ("dropcap.clouds", {"discretize": _n_nodes}),
    "kernels": ("dropcap.kernels", {"kernel_of_distance": _kernel_entries}),
    "operators": (
        "dropcap.operators",
        {"assemble_operator": _operator_entries, "potential_at": None},
    ),
    "equilibrium": (
        "dropcap.equilibrium",
        {"equilibrium_measure": _equilibrium_counts},
    ),
    "external_field": ("dropcap.external_field", {"solve_external": _el_residual}),
    "entropic": (
        "dropcap.entropic",
        {"solve_entropic": _el_residual, "entropic_energy": None},
    ),
    "shapes": (
        "dropcap.shapes",
        {
            "NearlySpherical.profile": None,
            "perimeter": None,
            "volume": None,
            "renormalize_to_unit_volume": None,
            "symmetric_difference_to_unit_ball": None,
        },
    ),
    "harmonics": (
        "dropcap.harmonics",
        {"real_sph_harm": None, "real_sph_harm_gradient": None, "gauss_sphere_grid": None},
    ),
    "instability": (
        "dropcap.instability",
        {
            "many_balls_family": None,
            "two_balls_field_family": None,
            "slab_family": None,
            "fuglede_check": None,
            "rayleigh_scan": None,
            "lemma_ratio_check": None,
            "convex_scan_2d": None,
        },
    ),
    "cli": ("dropcap.cli", {"main": None}),
    # reports.jsonable recurses through its module-global name, so only
    # the top-level renderer gets a span.
    "reports": ("dropcap.reports", {"render_json": None}),
}

PROFILE_SPAN = "shapes.NearlySpherical.profile"


class Tracer:
    """Single-threaded span recorder; spans stay in memory until written."""

    def __init__(self):
        self.spans: list[dict] = []
        self.problem = None
        self._stack: list[dict] = []
        self._shape_index: dict[int, int] = {}
        self._shapes: list = []  # keeps traced shapes alive so ids stay unique

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "problem": self.problem,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _shape_id(self, shape) -> int:
        key = id(shape)
        if key not in self._shape_index:
            self._shape_index[key] = len(self._shapes)
            self._shapes.append(shape)
        return self._shape_index[key]

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span["error"] = type(err).__name__
                raise
            finally:
                self._close(span)
            if name == PROFILE_SPAN:
                span["shape"] = self._shape_id(args[0])
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer entry point under all its dropcap names."""
        for module_name, _ in LAYERS.values():
            importlib.import_module(module_name)
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "dropcap" or name.startswith("dropcap."))
        ]
        patched = []
        try:
            for layer, (module_name, entries) in LAYERS.items():
                module = sys.modules[module_name]
                for entry, hook in entries.items():
                    if "." in entry:
                        cls_name, attr = entry.split(".")
                        owner = getattr(module, cls_name)
                        original = owner.__dict__[attr]
                        setattr(owner, attr, self._wrap(f"{layer}.{entry}", original, hook))
                        patched.append((owner, attr, original))
                        continue
                    original = getattr(module, entry)
                    wrapper = self._wrap(f"{layer}.{entry}", original, hook)
                    for m in modules:
                        for alias, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, alias, wrapper)
                                patched.append((m, alias, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_of(span: dict) -> str:
    return span["name"].split(".", 1)[0]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def _outermost_in_layer(spans: list[dict]) -> list[bool]:
    """True for spans with no ancestor in their own layer (busy = their sum)."""
    out = []
    for s in spans:
        layer = layer_of(s)
        p = s["parent"]
        while p is not None and layer_of(spans[p]) != layer:
            p = spans[p]["parent"]
        out.append(p is None)
    return out


def rollup(spans: list[dict], n_problems: int) -> dict:
    """Per-layer metrics from the spans of n_problems traced problems.

    busy_s is the time a layer's outermost spans cover, self_s the time
    its spans cover minus their child spans.  Times and counts are per
    problem; ratios, means and maxima are over all spans.
    """
    if n_problems < 1:
        raise ValueError("need at least one traced problem")
    busy = {layer: 0.0 for layer in LAYERS}
    own = {layer: 0.0 for layer in LAYERS}
    by_layer = {layer: [] for layer in LAYERS}
    for s, selft, outer in zip(spans, self_times(spans), _outermost_in_layer(spans)):
        layer = layer_of(s)
        by_layer[layer].append(s)
        own[layer] += selft
        if outer:
            busy[layer] += s["end"] - s["start"]

    def total(layer, key):
        return sum(s.get(key, 0) for s in by_layer[layer])

    def largest(layer, key):
        return max((s[key] for s in by_layer[layer] if key in s), default=0.0)

    profiles = [s for s in by_layer["shapes"] if s["name"] == PROFILE_SPAN]
    n_shapes = len({s["shape"] for s in profiles})
    eq = by_layer["equilibrium"]
    eq_ok = [s for s in eq if "iterations" in s]
    iterations = total("equilibrium", "iterations")
    op_entries = total("operators", "entries")
    sums = {
        "shapes.busy_s": busy["shapes"],
        "shapes.profile_calls": len(profiles),
        "harmonics.busy_s": busy["harmonics"],
        "clouds.calls": len(by_layer["clouds"]),
        "clouds.busy_s": busy["clouds"],
        "clouds.nodes": total("clouds", "nodes"),
        "kernels.busy_s": busy["kernels"],
        "kernels.entries": total("kernels", "entries"),
        "operators.busy_s": busy["operators"],
        "operators.self_s": own["operators"],
        "operators.entries": op_entries,
        "operators.matrix_bytes_computed": 8 * op_entries,
        "equilibrium.busy_s": busy["equilibrium"],
        "equilibrium.solves": len(eq),
        "equilibrium.iterations": iterations,
        "equilibrium.nonconverged": sum(1 for s in eq if s.get("error") == "NonConvergenceError"),
        "external_field.busy_s": busy["external_field"],
        "entropic.busy_s": busy["entropic"],
        "entropic.self_s": own["entropic"],
        "instability.busy_s": busy["instability"],
        "instability.self_s": own["instability"],
        "cli.main_s": busy["cli"],
        "reports.busy_s": busy["reports"],
    }
    ratios = {
        "shapes.profile_calls_per_shape": len(profiles) / n_shapes if n_shapes else 0.0,
        "operators.entries_per_s": op_entries / busy["operators"] if busy["operators"] else 0.0,
        "equilibrium.iterations_per_solve": iterations / len(eq_ok) if eq_ok else 0.0,
        "equilibrium.s_per_iteration": busy["equilibrium"] / iterations if iterations else 0.0,
        "equilibrium.active_fraction_mean": (
            sum(s["active_fraction"] for s in eq_ok) / len(eq_ok) if eq_ok else 0.0
        ),
        "equilibrium.kkt_residual_max": largest("equilibrium", "kkt_residual"),
        "external_field.el_residual_max": largest("external_field", "el_residual"),
        "entropic.el_residual_max": largest("entropic", "el_residual"),
    }
    return {**{name: v / n_problems for name, v in sums.items()}, **ratios}
