"""Span recording around pnewton's layer boundaries, from outside the package.

A :class:`Tracer` replaces selected module attributes with timing wrappers
while it is installed and puts every original back when it is removed. Each
call through a wrapper records one :class:`Span` (name, start, end, parent,
op id, thread id). Spans stay in memory; the caller writes them out when the
run ends.

Some callees are looked up on their module at call time (``solvers.run``,
``numpy.linalg.eigh``, ``scipy.linalg.cho_factor``, ...), so patching the one
attribute catches every call. Others were bound by name at import
(``from .linalg import spd_solve``), so every consumer module's binding is
patched; a call then passes through exactly one wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass

# Span name -> the (module, attribute) bindings that route into it. Modules are
# named by import path and resolved when the tracer is installed.
LINALG_BINDINGS = {
    "linalg.as_symmetric": ["pnewton.linalg", "pnewton.solvers", "pnewton.diagnostics"],
    "linalg.spd_solve": ["pnewton.solvers", "pnewton.diagnostics"],
    "linalg.sym_eig": ["pnewton.linalg", "pnewton.solvers", "pnewton.diagnostics", "pnewton.objective"],
    "linalg.pinv_apply": ["pnewton.solvers", "pnewton.diagnostics"],
    "linalg.psd_sqrt": ["pnewton.diagnostics"],
    "linalg.inv_sqrt_pd": ["pnewton.diagnostics"],
    "linalg.weighted_norm_sq": ["pnewton.solvers", "pnewton.diagnostics", "pnewton.objective"],
}

# (module, attribute, span name) for every other patched binding.
OTHER_BINDINGS = [
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("scipy.linalg", "cho_factor", "linalg.cho_factor"),
    ("pnewton.objective.GlmProblem", "value", "objective.value"),
    ("pnewton.objective.GlmProblem", "gradient", "objective.gradient"),
    ("pnewton.objective.GlmProblem", "hessian", "objective.hessian"),
    ("pnewton.objective", "glm_constants", "objective.glm_constants"),
    ("pnewton.harness.experiment", "glm_constants", "objective.glm_constants"),
    ("pnewton.harness.experiment", "glm_build", "objective.glm_build"),
    ("pnewton.solvers", "run", "solvers.run"),
    ("pnewton.solvers", "fstar_oracle", "solvers.fstar"),
    ("pnewton.diagnostics", "certify_penalty_contraction", "diagnostics.certify"),
    ("pnewton.diagnostics", "certify_augmented_contraction", "diagnostics.certify"),
    ("pnewton.harness.cli", "run_experiment", "harness.experiment.run"),
    ("pnewton.harness.experiment", "_run_one", "harness.experiment.solver"),
    ("pnewton.harness.cli", "certify_trace", "harness.replay"),
    ("pnewton.harness.experiment", "load_dataset", "harness.datasets.load"),
    ("pnewton.harness.experiment", "make_logistic_dataset", "harness.datasets.generate"),
]


def all_bindings() -> list[tuple[str, str, str]]:
    """Every ``(owner path, attribute, span name)`` the tracer patches."""
    out = []
    for span_name, owners in LINALG_BINDINGS.items():
        attr = span_name.split(".", 1)[1]
        out.extend((owner, attr, span_name) for owner in owners)
    return out + OTHER_BINDINGS


def resolve(path: str):
    """Import ``a.b.c`` or return attribute ``C`` of module ``a.b`` for ``a.b.C``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module_path, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module_path), attr)


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int
    tid: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans for calls through the patched bindings.

    A span's parent is the innermost open span on its own thread. A span that
    opens on a thread with nothing open (a ``PN_THREADS`` pool worker) takes
    the innermost open span of the thread that installed the tracer, i.e. the
    call that submitted the work.
    """

    def __init__(self, bindings=None):
        self.bindings = all_bindings() if bindings is None else bindings
        self.spans: list[Span] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_tid: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main_tid else []
            self._local.stack = stack
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the enclosed block."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.op, threading.get_ident()))

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self._main_tid = threading.get_ident()
        self._local = threading.local()
        for owner_path, attr, name in self.bindings:
            owner = resolve(owner_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        # restore in reverse so an attribute patched twice ends at its original
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# --------------------------------------------------------------------------
# span arithmetic


def union_length(intervals) -> int:
    """Total length covered by a collection of ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """Parent/child lookups and self-time arithmetic over a list of spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def _clipped(self, span: Span, kids) -> list[tuple[int, int]]:
        return [
            (max(c.start_ns, span.start_ns), min(c.end_ns, span.end_ns)) for c in kids
        ]

    def self_ns(self, span: Span) -> int:
        """Duration minus the union of the span's same-thread children."""
        kids = [c for c in self.children.get(span.id, []) if c.tid == span.tid]
        return span.duration_ns - union_length(self._clipped(span, kids))

    def ancestors(self, span: Span):
        parent = span.parent
        while parent is not None:
            node = self.by_id.get(parent)
            if node is None:
                return
            yield node
            parent = node.parent

    def has_ancestor(self, span: Span, prefix: str) -> bool:
        return any(a.name.startswith(prefix) for a in self.ancestors(span))

    def outermost(self, prefix: str) -> list[Span]:
        """Spans named ``prefix*`` with no ancestor of the same prefix."""
        return [
            s for s in self.spans
            if s.name.startswith(prefix) and not self.has_ancestor(s, prefix)
        ]
