"""In-memory spans recorded around calls into the package's layers.

The benchmark never edits the package. In a traced run it replaces a fixed
set of module attributes - the names one layer uses to call the next -
with timing wrappers, and puts the originals back afterwards. Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass

# (module, attribute, span name). The span name's first dotted part is the
# layer the call lands in. Each attribute is the binding the caller looks
# up at call time, so wrapping it times exactly the calls that cross into
# that layer. `values` gets no span: its calls are per scalar and too short
# to time from outside.
PATCH_POINTS = (
    ("fuzzymaps", "parse_model_text", "fileformats.parse_model_text"),
    ("fuzzymaps", "parse_vector_text", "fileformats.parse_vector_text"),
    ("fuzzymaps", "run", "models.run"),
    ("fuzzymaps", "render_trace", "trace.render_trace"),
    ("fuzzymaps", "verify_trace", "trace.verify_trace"),
    ("fuzzymaps.cli", "main", "cli.main"),
    ("fuzzymaps.cli", "parse_model_text", "fileformats.parse_model_text"),
    ("fuzzymaps.cli", "parse_vector_text", "fileformats.parse_vector_text"),
    ("fuzzymaps.cli", "parse_matrix_text", "fileformats.parse_matrix_text"),
    ("fuzzymaps.cli", "run", "models.run"),
    ("fuzzymaps.cli", "render_trace", "trace.render_trace"),
    ("fuzzymaps.cli", "solve_max", "fre.solve_max"),
    ("fuzzymaps.cli", "failing_columns", "fre.failing_columns"),
    ("fuzzymaps.cli", "minimal_solutions_bruteforce", "fre.minimal"),
    ("fuzzymaps.fileformats", "build_model", "models.build_model"),
    ("fuzzymaps.models", "run_cm", "dynamics.run"),
    ("fuzzymaps.models", "run_rm", "dynamics.run"),
    ("fuzzymaps.models", "run_mixed", "dynamics.run"),
    ("fuzzymaps.dynamics", "apply_part", "special.apply_part"),
    ("fuzzymaps.dynamics", "transpose", "matrices.transpose"),
    ("fuzzymaps.fre", "maxmin_compose", "matrices.maxmin_compose"),
    ("fuzzymaps.trace", "parse_trace", "trace.parse_trace"),
)

LAYERS = ("cli", "fileformats", "models", "dynamics", "special", "trace",
          "fre", "matrices")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int  # id shared by the spans of one op; -1 outside ops
    ok: bool  # False when an exception left the span

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans; `patched()` installs the wrappers for one op."""

    def __init__(self, record_apply_part: int = 0):
        self.spans = []
        self.op = -1
        self._stack = []
        # (part, matrix, op, policy) argument tuples of the first calls
        # into special.apply_part, kept for a replay after the run
        self.apply_part_calls = []
        self._record_limit = record_apply_part
        self._patches = []  # (module object, attribute, original, wrapper)
        for module, attr, name in PATCH_POINTS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self._patches.append((mod, attr, fn, self._wrap(name, fn)))

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), parent))
        self._stack.append(idx)
        return idx

    def end(self, idx: int, ok: bool = True):
        name, start, parent = self.spans[idx]
        self.spans[idx] = Span(name, start, time.perf_counter(), parent,
                               self.op, ok)
        self._stack.pop()

    def _wrap(self, name, fn):
        begin, end = self.begin, self.end
        record = name == "special.apply_part"

        def wrapped(*args, **kwargs):
            if record and len(self.apply_part_calls) < self._record_limit:
                self.apply_part_calls.append(args)
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end(idx, ok=False)
                raise
            end(idx)
            return result

        return wrapped

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper for the duration of the block."""
        for mod, attr, _fn, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, fn, _wrapper in self._patches:
                setattr(mod, attr, fn)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self.end(idx, ok)


def self_times(spans) -> dict:
    """Per-span self time: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return {i: (s.end - s.start) - child[i] for i, s in enumerate(spans)}
