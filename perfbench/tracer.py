"""Pass-through spans around every public function of the mssmf modules.

``install`` replaces each public module-level function of ``synth``,
``initialization``, ``solver``, ``simplex``, ``metrics`` and ``model`` (and
``FactorStack.replace``) by a wrapper that records a span and calls the
original.  A function imported by name into another module (``solver`` takes
``trigamma``, ``dirichlet_entropy`` and ``project_simplex_columns`` from
``simplex``; ``initialization`` takes ``update_sigma2`` from ``solver``) is
wrapped at every binding, so calls through any of them are seen.  The
wrappers change no argument and no result; ``uninstall`` restores the
originals.

Spans are kept in memory: name, thread id, start, end, parent span and the
benchmark phase (scene, init, fit, eval, pool) that was current when they began.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager

MODULES = ("synth", "initialization", "solver", "simplex", "metrics", "model")
SPECIAL_FUNCTIONS = ("simplex.log_gamma", "simplex.digamma", "simplex.trigamma")


class Span:
    __slots__ = ("name", "thread", "start", "end", "parent", "phase", "child_s", "size")

    def __init__(self, name, thread, start, parent, phase):
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase
        self.child_s = 0.0
        # elements (special functions) or columns (simplex projection) handled
        self.size = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    def __init__(self):
        self.spans = []
        self.current_phase = None
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name, size=0):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        sp = Span(name, threading.get_ident(), 0.0, parent, self.current_phase)
        sp.size = size
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += sp.seconds
            with self._lock:
                self.spans.append(sp)

    @contextmanager
    def phase(self, name):
        """A benchmark stage; its span is named ``phase.<name>``."""
        self.current_phase = name
        try:
            with self.span("phase." + name):
                yield
        finally:
            self.current_phase = None

    def select(self, name, phase=None):
        return [
            s for s in self.spans
            if s.name == name and (phase is None or s.phase == phase)
        ]

    def total_ms(self, name, phase=None) -> float:
        return 1e3 * sum(s.seconds for s in self.select(name, phase))

    def calls(self, name, phase=None) -> int:
        return len(self.select(name, phase))

    def table(self):
        """Per span name: calls, inclusive ms and self ms, summed over threads."""
        out = {}
        for s in self.spans:
            row = out.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += 1e3 * s.seconds
            row[2] += 1e3 * s.self_seconds
        return out

    def thread_busy_ms(self, phase=None):
        """Per thread: summed duration of its outermost spans."""
        out = {}
        for s in self.spans:
            if s.parent is None and (phase is None or s.phase == phase):
                out[s.thread] = out.get(s.thread, 0.0) + 1e3 * s.seconds
        return out


def _elements(args, kwargs):
    shape = getattr(args[0], "shape", ())
    size = 1
    for d in shape:
        size *= d
    return size


def _columns(args, kwargs):
    shape = getattr(args[0], "shape", ())
    return shape[1] if len(shape) == 2 else 0


def _apg_name(args, kwargs):
    which = args[3] if len(args) > 3 else kwargs["which"]
    return "solver.apg_basis" if which == 0 else "solver.apg_mixer"


# span names decided from the arguments, and sizes taken from them
_NAMERS = {"solver.apg_update_factor": _apg_name}
_SIZERS = {name: _elements for name in SPECIAL_FUNCTIONS}
_SIZERS["simplex.project_simplex_columns"] = _columns


def _wrap(fn, name, tracer):
    namer = _NAMERS.get(name)
    sizer = _SIZERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label = namer(args, kwargs) if namer else name
        size = sizer(args, kwargs) if sizer else 0
        with tracer.span(label, size):
            return fn(*args, **kwargs)

    return traced


def install(tracer: Tracer):
    """Wrap every binding of every public function; returns the undo list."""
    mods = {m: importlib.import_module("mssmf." + m) for m in MODULES}
    owners = [m for k, m in sorted(sys.modules.items()) if k == "mssmf" or k.startswith("mssmf.")]
    undo = []
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            wrapper = _wrap(obj, f"{short}.{attr}", tracer)
            for owner in owners:
                for key, val in list(vars(owner).items()):
                    if val is obj:
                        undo.append((owner, key, obj))
                        setattr(owner, key, wrapper)
    stack_cls = mods["model"].FactorStack
    original = stack_cls.__dict__["replace"]
    undo.append((stack_cls, "replace", original))
    stack_cls.replace = _wrap(original, "model.stack_replace", tracer)
    return undo


def uninstall(undo):
    for owner, key, obj in reversed(undo):
        setattr(owner, key, obj)
