"""Span tracing of croft_forge from outside the package.

``Tracer.install`` replaces each public function named in ``LAYERS`` by a
wrapper that records a span (name, start, end, parent) around the call.
The wrapper is put in place of the original under every name that refers
to it in every loaded ``croft_forge`` module, because modules import each
other's functions by name (``tortoise`` calls its own ``build_body`` and
``halfplane_clip_area`` bindings).  No file of the package changes.

Spans stay in memory; ``dump`` writes them out when the run ends.  A
span's self time is its duration minus the durations of its direct child
spans.  The harness opens ``op`` and ``step`` spans around its timed
regions, so the layer spans directly below them show how much of the
traced wall time the named layers cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# The modules on the hot path and the public functions timed in each.
# cli, svgout and reference do no measurable work in any workload.
LAYERS = {
    "body": ("build_body", "body_area", "boundary_point"),
    "clip": ("halfplane_clip_area", "boundary_line_crossings"),
    "segments": ("minimize_pair_shift", "minimize_pair_shift_tilt"),
    "stepfn": ("make_step_function",),
    "lattice": ("cut_parameters", "verify_avoidance"),
    "tortoise": ("tortoise_area", "pair_clip_area"),
    "ansatz": ("c2_net", "closure_matrix", "assemble_quadratic_form", "jacobi_eigh"),
}
LAYER_FUNCTIONS = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)
HARNESS_SPANS = ("op", "step")
EXACT_MODES = ("exact1", "exact2")
EDGE_CLASSES = 3  # exact edge cuts per exact-mode tortoise_area call


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``enabled``; wrapped calls pass straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.exact_edges = 0
        self._stack = [-1]

    @contextmanager
    def span(self, name: str):
        span = Span(name, perf_counter(), self._stack[-1])
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _count_exact_edges(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if bound.arguments["mode"] in EXACT_MODES:
                    self.exact_edges += EDGE_CLASSES
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every function of ``LAYERS`` wherever croft_forge binds it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "croft_forge" or n.startswith("croft_forge.")
        ]
        for name in LAYER_FUNCTIONS:
            module_name, func_name = name.split(".")
            original = getattr(importlib.import_module(f"croft_forge.{module_name}"), func_name)
            wrapped = self._wrap(name, original)
            if name == "tortoise.tortoise_area":
                wrapped = self._count_exact_edges(wrapped)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    setattr(module, attr, wrapped)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time, plus the derived trace ratios."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.duration
        calls = dict.fromkeys(LAYER_FUNCTIONS, 0)
        self_s = dict.fromkeys(LAYER_FUNCTIONS, 0.0)
        harness_s = covered_s = 0.0
        for i, span in enumerate(self.spans):
            if span.name in HARNESS_SPANS:
                harness_s += span.duration
                covered_s += child_s[i]
                continue
            calls[span.name] += 1
            self_s[span.name] += span.duration - child_s[i]
        out = {}
        for name in LAYER_FUNCTIONS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        per_edge = calls["tortoise.pair_clip_area"] / self.exact_edges if self.exact_edges else 0.0
        out["tortoise.pair_clip_area.per_edge"] = (per_edge, "evals/edge")
        out["trace.coverage"] = (covered_s / harness_s if harness_s else 0.0, "frac")
        return out

    def dump(self, path, **header) -> None:
        """Write the spans as JSON: [name, start, end, parent index] each."""
        with open(path, "w") as fh:
            json.dump(
                {**header, "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans]},
                fh,
            )
