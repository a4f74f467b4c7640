"""Spans at hdgwave's layer boundaries, recorded from outside the package.

A boundary is a function (or ``Assembler`` method) that the benchmark
replaces with a timing wrapper at every name it is looked up through, so
that calls made inside the package are seen too.  Each call appends one
span ``(name, start, end, parent)`` to an in-memory list; ``parent`` is the
index of the enclosing span, or -1.  A span's self time is its duration
minus the durations of its direct children.

Span names are ``<defining module>.<function>``; the module is the layer
the span's self time is charged to.  A boundary that no longer exists is
listed in ``Tracer.missing`` and skipped, so the untraced metrics keep
working after a refactor removes it.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

# (span name, sites it is looked up through as (module, attribute path))
BOUNDARIES = (
    ("skeleton.solve_problem", (("hdgwave.verify", "solve_problem"),)),
    ("verify.compute_errors", (("hdgwave.verify", "compute_errors"),)),
    ("projections.compute_theta", (("hdgwave.verify", "compute_theta"),)),
    ("skeleton.assemble_system", (("hdgwave.skeleton", "assemble_system"),)),
    ("skeleton.solve_assembled", (("hdgwave.skeleton", "solve_assembled"),)),
    ("skeleton.recover_fields", (("hdgwave.skeleton", "recover_fields"),)),
    ("skeleton.splu", (("hdgwave.skeleton", "splu"),)),
    ("projections.face_rule", (("hdgwave.skeleton", "face_rule"),
                               ("hdgwave.projections", "face_rule"))),
    ("local_solver.build_element_tables",
     (("hdgwave.local_solver", "build_element_tables"),)),
    ("elastic_spaces.build_stress_basis",
     (("hdgwave.local_solver", "build_stress_basis"),)),
    ("local_solver.all_locals", (("hdgwave.local_solver", "Assembler.all_locals"),)),
    ("local_solver.tables", (("hdgwave.local_solver", "Assembler.tables"),)),
    ("projections.project_acoustic", (("hdgwave.projections", "project_acoustic"),)),
    ("projections.project_elastic", (("hdgwave.projections", "project_elastic"),)),
    ("mesh.refine", (("hdgwave.verify", "refine"),)),
    ("mesh.build_structured_coupled",
     (("hdgwave.verify", "build_structured_coupled"),
      ("hdgwave.mesh", "build_structured_coupled"))),
)

ROOT = "workload"


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Patches:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records one span per boundary call; ``observers`` see call results."""

    def __init__(self, boundaries=BOUNDARIES, observers=None):
        self.boundaries = boundaries
        self.observers = observers or {}
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches = Patches()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observer = self.observers.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, sites in self.boundaries:
            found = False
            for module, path in sites:
                target = _resolve(module, path)
                if target is None:
                    continue
                found = True
                self._patches.replace(*target, lambda fn, name=name: self._wrap(name, fn))
            if not found:
                self.missing.append(name)

    def uninstall(self) -> None:
        self._patches.restore()

    @contextlib.contextmanager
    def root(self):
        """The outermost span, enclosing one run of a workload."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (ROOT, start, time.perf_counter(), -1)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans):
    """Per span name: call count and self time, in total and below each ancestor.

    ``within[(ancestor, name)]`` holds the self time of ``name`` spans that
    have an ``ancestor`` span above them, which lets a metric restrict a
    layer to one caller (local assembly inside ``all_locals`` only).
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    within: dict[tuple[str, str], float] = defaultdict(float)
    within_calls: dict[tuple[str, str], int] = defaultdict(int)
    for i, (name, _, _, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += selfs[i]
        seen = set()
        p = parent
        while p >= 0:
            anc = spans[p][0]
            if anc not in seen:
                seen.add(anc)
                within[(anc, name)] += selfs[i]
                within_calls[(anc, name)] += 1
            p = spans[p][3]
    return calls, self_s, within, within_calls
