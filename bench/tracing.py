"""Spans recorded around calls into jointbell, installed from outside the package.

A span is ``[name, start_ns, end_ns, parent, job]``: ``parent`` is the index
of the enclosing span in the same list (None for a job's root span) and
``job`` is the index of the job it belongs to.  Span names are
``<layer>.<function>``; the layer is the jointbell module the function lives
in, ``cli`` for a whole command, ``setup`` for interpreter start plus the
import of ``jointbell.cli``, and ``job`` for a job's root span, whose self
time is the part of the job no other span covers.

Times come from ``time.monotonic_ns``, which on Linux reads
CLOCK_MONOTONIC and so is comparable between a parent and the interpreters
it spawns.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

clock = time.monotonic_ns

#: Functions wrapped in a traced run, by jointbell module.
WRAPPED: dict[str, tuple[str, ...]] = {
    "core": (
        "werner_state", "build_joint_povm", "bell_operator", "bell_expectation",
        "side_observables",
    ),
    "sim": (
        "joint_distribution", "quasi_distribution", "sample_counts",
        "probabilities_from_counts", "aggregate_b", "joint_visibilities",
        "write_count_table", "read_count_table",
    ),
    "analysis": ("pbflip_outcome", "flip_convolve", "fit_bell_magnitude"),
    "figures": ("line_points", "distribution_rows", "scatter_svg", "bars_svg"),
}

#: Layers in report order; ``job`` holds the uncovered remainder.
LAYERS = ("setup", "cli", "core", "sim", "analysis", "figures", "selfcheck", "job")


def suite_name(check) -> str:
    """Span name suffix of one ``selfcheck`` suite function."""
    return check.__name__.removeprefix("check_")


class Tracer:
    """Keeps spans in memory; ``job`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, start: int | None = None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, clock() if start is None else start, None, parent, self.job])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = clock()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, self.job])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        return traced

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded by another process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, child_parent, _ in child_spans:
            owner = parent if child_parent is None else base + child_parent
            self.spans.append([name, start, end, owner, self.job])

    def install(self):
        """Bind a wrapper in place of each function in WRAPPED, in every
        jointbell module that binds it, and wrap each ``selfcheck`` suite in
        ``ALL_CHECKS``.  Returns a function that restores the originals."""
        modules = [m for n, m in sys.modules.items() if n == "jointbell" or n.startswith("jointbell.")]
        wrappers = {}
        for module_name, names in WRAPPED.items():
            module = sys.modules[f"jointbell.{module_name}"]
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    print(f"tracing: jointbell.{module_name}.{name} not found", file=sys.stderr)
                    continue
                wrappers[id(fn)] = (fn, self.wrap(f"{module_name}.{name}", fn))
        restore = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    restore.append((module, attr, value))
        selfcheck = sys.modules["jointbell.selfcheck"]
        checks = selfcheck.ALL_CHECKS
        selfcheck.ALL_CHECKS = tuple(self.wrap(f"selfcheck.{suite_name(c)}", c) for c in checks)
        restore.append((selfcheck, "ALL_CHECKS", checks))

        def uninstall() -> None:
            for module, attr, value in reversed(restore):
                setattr(module, attr, value)

        return uninstall


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own

