"""Spans around isoflow's entry points, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
isoflow namespace that binds it (``from .decompose import wold_cooper`` makes
``catalog.wold_cooper`` a second binding), and replaces the traced methods on
their classes.  ``numpy.linalg.svd`` and ``eigh`` are wrapped on the numpy
module, which is where isoflow looks them up.  ``uninstall`` restores every
binding.

Each wrapped call appends a span: group, start, end, parent span and trace id
(scenario or phase, and pass).  A group is ``<layer>.<entry>`` and the layer is
the isoflow module.  Per-pass metrics are derived from the spans:

* ``<group>`` calls and ``_s`` times count only the outermost span of a group,
  so ``residual_norm`` calling ``spectral_norm`` is one residual call;
* a layer's ``self_s`` is the time of its spans minus their child spans;
* counts, computed flops and bytes and ratios come from argument shapes and
  results only, never from the clock, so they repeat exactly between passes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "catalog", "report", "spaces", "semigroups", "numlin", "decompose",
          "commutant", "duality")

# entry point -> group; other functions in a module's __all__ fall in
# DEFAULT_GROUP, or in "<layer>.other"
GROUPS = {
    "cli": {"load_scenarios": "load"},
    "catalog": {"run_scenario": "run"},
    "report": {"render_report": "render", "render_reports": "render"},
    "semigroups": {
        "WindowedMap.compose": "compose",
        "WindowedMap.__post_init__": "map_validate",
        "SemigroupFamily.element": "element",
        "check_semigroup_law": "law",
        **{name: "construct" for name in (
            "halfline_shift", "halfline_shift_family", "partial_isometry_pair",
            "phi_multiplier", "phi_family", "bishift_pair", "bishift_families",
            "modified_bishift_pair", "modified_bishift_families", "torus_translation",
            "circulant_unitary", "circulant_family", "direct_sum", "tensor_with_identity")},
    },
    "numlin": {
        "Subspace.__post_init__": "subspace_validate",
        "orthonormal_basis": "basis",
        "intersect": "lattice", "complement": "lattice", "subtract": "lattice",
        "nullspace": "nullspace",
        "residual_norm": "residual", "spectral_norm": "residual",
        "column_restricted_residual": "residual",
    },
    "decompose": {
        "wold_cooper": "wold", "classify_pair": "classify",
        "fourfold_decompose": "fourfold", "product_unitary_part": "product",
        "bcl_check": "bcl",
    },
    "commutant": {"commutant_of_partial_isometries": "solve",
                  "doubly_commutant_of_mz": "solve"},
    "duality": {
        "ExtensionSetup.__post_init__": "setup_validate",
        "minimal_extension": "orbit", "_orbit_span": "orbit",
        "dual_pair": "dual", "dual_fourfold": "fourfold",
    },
}
DEFAULT_GROUP = {"spaces": "call"}
LAPACK = ("svd", "eigh")

COMPLEX = 16  # bytes per complex128 entry
REAL = 8

# span fields
GROUP, START, END, PARENT, TRACE, OUTER, CHILD, ATTRS = range(8)


def _compose_attrs(args, result):
    left, right = args[0], args[1]
    r, k, c = left.codomain_dim, left.domain_dim, right.domain_dim
    return {"flops": 8 * r * k * c, "bytes": COMPLEX * (r * k + k * c + r * c),
            "faithful": len(result.faithful), "columns": c}


def _lattice_attrs(args, result):
    operands = [a for a in args if hasattr(a, "cells")]
    return {"exact": int(all(a.cells is not None for a in operands))}


def _nullspace_attrs(args, result):
    rows, cols = np.shape(args[0])
    full = COMPLEX * (rows * cols + rows * rows + cols * cols) + REAL * min(rows, cols)
    return {"rows": rows, "cols": cols, "bytes": full}


def _render_attrs(args, result):
    reports = args[0] if isinstance(args[0], (list, tuple)) else [args[0]]
    return {"checks": sum(len(r.entries) for r in reports), "bytes": len(result.encode())}


ATTRS_OF = {
    "semigroups.compose": _compose_attrs,
    "numlin.lattice": _lattice_attrs,
    "numlin.nullspace": _nullspace_attrs,
    "numlin.residual": lambda args, result: {"zero": int(result == 0.0)},
    "decompose.wold": lambda args, result: {"steps": result.steps_used,
                                            "stabilized": int(result.stabilized)},
    "commutant.solve": lambda args, result: {"dim": result.dim},
    "duality.orbit": lambda args, result: {"radius": result.radius},
    "cli.load": lambda args, result: {"scenarios": len(result)},
    "report.render": _render_attrs,
}


class Tracer:
    """In-memory span recorder; ``trace`` names the scenario or phase and pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.trace = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []
        self._cache_top = weakref.WeakKeyDictionary()  # family -> highest cached power

    # -- recording

    def _wrap(self, group: str, fn, attrs=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [group, 0.0, 0.0, stack[-1] if stack else -1, tracer.trace,
                    depth[group] == 0, 0.0, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[group] -= 1
                stack.pop()
                span[START], span[END] = start, end
                if span[PARENT] >= 0:
                    spans[span[PARENT]][CHILD] += end - start
            if attrs is not None and span[OUTER]:
                span[ATTRS] = attrs(args, result)
            return result

        return wrapper

    def _element_attrs(self, args, result):
        family, steps = args[0], int(args[1])
        top = self._cache_top.get(family, 0)
        self._cache_top[family] = max(top, steps)
        new = max(0, steps - top)
        return {"hit": int(steps <= top), "cache_bytes": new * COMPLEX * family.dim ** 2}

    def install(self) -> None:
        modules = [importlib.import_module(f"isoflow.{layer}") for layer in LAYERS]
        namespaces = [sys.modules["isoflow"], *modules]
        for layer, module in zip(LAYERS, modules):
            table = dict(GROUPS.get(layer, {}))
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name, None)
                if callable(obj) and not isinstance(obj, type) and name not in table:
                    table[name] = DEFAULT_GROUP.get(layer, "other")
            for path, entry in table.items():
                group = f"{layer}.{entry}"
                attrs = self._element_attrs if group == "semigroups.element" \
                    else ATTRS_OF.get(group)
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(module, cls_name, None)
                    if cls is None or meth not in vars(cls):
                        self.missing.append(f"{layer}.{path}")
                        continue
                    original = vars(cls)[meth]
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(group, original, attrs))
                    continue
                original = getattr(module, path, None)
                if original is None:
                    self.missing.append(f"{layer}.{path}")
                    continue
                wrapper = self._wrap(group, original, attrs)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self._restore.append((namespace, key, original))
                            setattr(namespace, key, wrapper)
        for name in LAPACK:
            original = getattr(np.linalg, name)
            self._restore.append((np.linalg, name, original))
            setattr(np.linalg, name, self._wrap("numlin.lapack", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output

    def write_jsonl(self, path) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span[GROUP], "parent": span[PARENT],
                    "trace": span[TRACE], "start": span[START] - origin,
                    "end": span[END] - origin}) + "\n")

    def pass_metrics(self, first: int, last: int) -> tuple[dict, dict]:
        """Per-layer metrics and self time per layer of the spans in [first, last)."""
        calls = defaultdict(int)
        seconds = defaultdict(float)
        self_s = defaultdict(float)
        sums = defaultdict(int)
        spans = self.spans
        for index in range(first, last):
            span = spans[index]
            group = span[GROUP]
            duration = span[END] - span[START]
            self_s[group.split(".")[0]] += duration - span[CHILD]
            if not span[OUTER]:
                continue
            calls[group] += 1
            seconds[group] += duration
            for key, value in (span[ATTRS] or {}).items():
                sums[f"{group}.{key}"] += value
            if group == "numlin.nullspace" and span[ATTRS]:
                parent = span[PARENT]
                while parent >= first and spans[parent][GROUP] != "commutant.solve":
                    parent = spans[parent][PARENT]
                if parent >= first:
                    sums["commutant.system_rows"] += span[ATTRS]["rows"]
                    sums["commutant.system_cols"] += span[ATTRS]["cols"]
        return derive(calls, seconds, self_s, sums)


def _ratio(part: int, base: int) -> tuple:
    """A ratio with its base; 0.0 when nothing was attempted."""
    return (part / base if base else 0.0), "ratio", part, base


def derive(calls, seconds, self_s, sums) -> tuple[dict, dict]:
    """Name -> (value, unit[, part, base]) for every per-layer metric; layer -> self time."""
    def prefixed(layer):
        return [g for g in calls if g.startswith(layer + ".")]

    out = {
        "cli.load_s": (seconds["cli.load"], "s"),
        "cli.scenarios": (sums["cli.load.scenarios"], "count"),
        "catalog.run_calls": (calls["catalog.run"], "count"),
        "catalog.self_s": (self_s["catalog"], "s"),
        "report.render_s": (seconds["report.render"], "s"),
        "report.checks": (sums["report.render.checks"], "count"),
        "report.bytes": (sums["report.render.bytes"], "B"),
        "spaces.calls": (sum(calls[g] for g in prefixed("spaces")), "count"),
        "spaces.s": (sum((seconds[g] for g in prefixed("spaces")), 0.0), "s"),
        "semigroups.construct_calls": (calls["semigroups.construct"], "count"),
        "semigroups.construct_s": (seconds["semigroups.construct"], "s"),
        "semigroups.compose_calls": (calls["semigroups.compose"], "count"),
        "semigroups.compose_s": (seconds["semigroups.compose"], "s"),
        "semigroups.compose_flops": (sums["semigroups.compose.flops"], "flop"),
        "semigroups.compose_bytes": (sums["semigroups.compose.bytes"], "B"),
        "semigroups.compose_faithful_ratio": _ratio(
            sums["semigroups.compose.faithful"], sums["semigroups.compose.columns"]),
        "semigroups.element_calls": (calls["semigroups.element"], "count"),
        "semigroups.power_cache_hit_ratio": _ratio(
            sums["semigroups.element.hit"], calls["semigroups.element"]),
        "semigroups.power_cache_bytes": (sums["semigroups.element.cache_bytes"], "B"),
        "semigroups.map_new": (calls["semigroups.map_validate"], "count"),
        "semigroups.map_validate_s": (seconds["semigroups.map_validate"], "s"),
        "semigroups.law_s": (seconds["semigroups.law"], "s"),
        "numlin.subspace_new": (calls["numlin.subspace_validate"], "count"),
        "numlin.subspace_validate_s": (seconds["numlin.subspace_validate"], "s"),
        "numlin.basis_calls": (calls["numlin.basis"], "count"),
        "numlin.basis_s": (seconds["numlin.basis"], "s"),
        "numlin.lattice_calls": (calls["numlin.lattice"], "count"),
        "numlin.lattice_s": (seconds["numlin.lattice"], "s"),
        "numlin.exact_path_ratio": _ratio(
            sums["numlin.lattice.exact"], calls["numlin.lattice"]),
        "numlin.nullspace_calls": (calls["numlin.nullspace"], "count"),
        "numlin.nullspace_s": (seconds["numlin.nullspace"], "s"),
        "numlin.nullspace_bytes": (sums["numlin.nullspace.bytes"], "B"),
        "numlin.residual_calls": (calls["numlin.residual"], "count"),
        "numlin.residual_s": (seconds["numlin.residual"], "s"),
        "numlin.residual_zero_ratio": _ratio(
            sums["numlin.residual.zero"], calls["numlin.residual"]),
        "numlin.lapack_calls": (calls["numlin.lapack"], "count"),
        "numlin.lapack_s": (seconds["numlin.lapack"], "s"),
        "decompose.wold_calls": (calls["decompose.wold"], "count"),
        "decompose.wold_s": (seconds["decompose.wold"], "s"),
        "decompose.wold_steps": (sums["decompose.wold.steps"], "count"),
        "decompose.wold_stabilized_ratio": _ratio(
            sums["decompose.wold.stabilized"], calls["decompose.wold"]),
        "decompose.classify_s": (seconds["decompose.classify"], "s"),
        "decompose.fourfold_s": (seconds["decompose.fourfold"], "s"),
        "decompose.product_s": (seconds["decompose.product"], "s"),
        "decompose.bcl_s": (seconds["decompose.bcl"], "s"),
        "decompose.self_s": (self_s["decompose"], "s"),
        "commutant.solve_calls": (calls["commutant.solve"], "count"),
        "commutant.solve_s": (seconds["commutant.solve"], "s"),
        "commutant.self_s": (self_s["commutant"], "s"),
        "commutant.system_rows": (sums["commutant.system_rows"], "count"),
        "commutant.system_cols": (sums["commutant.system_cols"], "count"),
        "commutant.dim": (sums["commutant.solve.dim"], "count"),
        "duality.setup_new": (calls["duality.setup_validate"], "count"),
        "duality.setup_validate_s": (seconds["duality.setup_validate"], "s"),
        "duality.orbit_calls": (calls["duality.orbit"], "count"),
        "duality.orbit_s": (seconds["duality.orbit"], "s"),
        "duality.orbit_radius": (sums["duality.orbit.radius"], "count"),
        "duality.dual_calls": (calls["duality.dual"], "count"),
        "duality.dual_s": (seconds["duality.dual"], "s"),
        "duality.fourfold_s": (seconds["duality.fourfold"], "s"),
        "duality.self_s": (self_s["duality"], "s"),
    }
    return out, {layer: self_s[layer] for layer in LAYERS}
