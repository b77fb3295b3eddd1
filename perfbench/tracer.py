"""Layer spans for the traced pass, recorded from outside the program.

Public functions are rebound, for the traced pass only, in the module
namespaces that call them (``flatlinks.cli.link_polynomial``,
``flatlinks.filament.greedy_zero_sum_partition``, ...), so the program
itself is not changed.  Spans are kept in memory: name, start, end and
the span that caused it; the root span of every op is ``cli``.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name); the layer is the name's first part
WRAPPED = (
    ("cli", "parse_flat_link", "gausscode.parse"),
    ("cli", "validate", "gausscode.validate"),
    ("invariant", "validate", "gausscode.validate"),
    ("filament", "validate", "gausscode.validate"),
    ("cli", "link_polynomial", "invariant.link_polynomial"),
    ("generate", "link_polynomial", "invariant.link_polynomial"),
    ("cli", "link_filamentation", "filament.link_filamentation"),
    ("filament", "greedy_zero_sum_partition", "filament.greedy"),
    ("cli", "brute_force_filamentation", "filament.oracle"),
    ("generate", "brute_force_filamentation", "filament.oracle"),
    ("cli", "random_walk", "moves.random_walk"),
    ("cli", "find_move_sites", "moves.find_move_sites"),
    ("cli", "apply_move", "moves.apply"),
    ("moves", "apply_move", "moves.apply"),
    ("cli", "enumerate_small_codes", "generate.enumerate"),
    ("generate", "enumerate_small_codes", "generate.enumerate"),
    ("cli", "search_examples", "generate.search"),
)
# generator functions: the span covers the whole iteration
MATERIALIZED = {"enumerate_small_codes"}


class Span:
    """``result`` keeps a summary of what the call returned: the length
    of a materialized generator, otherwise whether it returned a value;
    a root span keeps its op label.  ``scale`` is set by the caller on
    root spans, as the calibration factor of the op."""

    __slots__ = ("name", "start", "end", "children", "result", "scale")

    def __init__(self, name: str):
        self.name = name
        self.children: list[Span] = []
        self.start = perf_counter()
        self.end = self.start
        self.result = None
        self.scale = 1.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - sum(c.seconds for c in self.children)


class Tracer:
    """Records spans while installed and while an op is open.

    Calls made outside an op (answer checks between ops) pass straight
    through, so the spans cover exactly the CLI calls being traced.
    """

    def __init__(self):
        self.roots: list[Span] = []
        self._open: Span | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, materialize: bool):
        def traced(*args, **kwargs):
            parent = self._open
            if parent is None:
                return fn(*args, **kwargs)
            span = Span(name)
            parent.children.append(span)
            self._open = span
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
                    span.result = len(result)
                else:
                    span.result = result is not None
                return result
            finally:
                span.end = perf_counter()
                self._open = parent

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(f"flatlinks.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attr in MATERIALIZED))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def op(self, label: str):
        """Open the root span of one CLI call."""
        span = Span("cli")
        span.result = label
        self.roots.append(span)
        self._open = span
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open = None

    def spans(self):
        """Every span, as (root of its op, span), roots included."""
        for root in self.roots:
            stack = [root]
            while stack:
                span = stack.pop()
                yield root, span
                stack.extend(span.children)

    def dump(self) -> list:
        """Every span as [name, start, end, parent row], parents first."""
        rows = []
        stack = [(r, -1) for r in reversed(self.roots)]
        while stack:
            span, parent = stack.pop()
            row = len(rows)
            rows.append([span.name, round(span.start, 7), round(span.end, 7), parent])
            stack.extend((c, row) for c in reversed(span.children))
        return rows
