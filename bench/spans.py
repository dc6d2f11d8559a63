"""In-memory span tracing of wavecert's public functions, from outside the
package.

``Tracer.install`` replaces each traced function everywhere it is bound: in
its defining module and in every ``wavecert`` module that imported it by
name (``from .linalg import pencil_min_eigenvalue`` binds the name in
``condition``, so the call made there is traced too).  Methods are replaced
on their class.  ``Tracer.uninstall`` puts every original back.

Spans nest on a thread-local stack, because ``check_condition`` runs its
per-point loop in a thread pool.  A span's self time is its duration minus
the durations of its direct children on the same thread.  Spans are not kept
one by one: each thread folds them into totals keyed by (op, parent, name),
and ``Tracer.edges`` merges the threads when the run ends.  A span opened in
a pool thread has the parent ``(thread)``.
"""

import threading
import time
from collections import defaultdict

THREAD_ROOT = "(thread)"


class _ThreadState(threading.local):
    def __init__(self, registry, lock):
        self.stack = []  # open frames: [name, child_seconds]
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.counters = defaultdict(float)
        with lock:
            registry.append((self.edges, self.counters))


class Tracer:
    """Span and counter recorder for one benchmark run."""

    def __init__(self):
        self.op = None  # index of the op in flight, set by the runner
        self._registry = []
        self._lock = threading.Lock()
        self._state = _ThreadState(self._registry, self._lock)
        self._patches = []
        self._distinct = {}
        self.hook_errors = []  # counter hooks that raised, as "span: error"

    # -- recording -----------------------------------------------------------

    def stack_names(self):
        """Names of the spans open on the calling thread, outermost first."""
        return [frame[0] for frame in self._state.stack]

    def count(self, name: str, amount: float = 1.0):
        """Add to a counter of the op in flight."""
        self._state.counters[(self.op, name)] += amount

    def distinct(self, name: str, key):
        """Add ``key`` to the set of distinct keys called ``name``."""
        self._distinct.setdefault(name, set()).add(key)

    def distinct_keys(self, name: str):
        return self._distinct.get(name, set())

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        state = self._state
        stack = state.stack
        parent = stack[-1][0] if stack else THREAD_ROOT
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            edge = state.edges[(self.op, parent, name)]
            edge[0] += 1
            edge[1] += elapsed
            edge[2] += elapsed - frame[1]

    def edges(self):
        """Merged span totals: {(op, parent, name): [calls, total_s, self_s]}."""
        merged = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            for edges, _ in self._registry:
                for key, (calls, total, own) in list(edges.items()):
                    acc = merged[key]
                    acc[0] += calls
                    acc[1] += total
                    acc[2] += own
        return dict(merged)

    def counters(self):
        """Merged counters: {(op, name): value}."""
        merged = defaultdict(float)
        with self._lock:
            for _, counters in self._registry:
                for key, value in list(counters.items()):
                    merged[key] += value
        return dict(merged)

    # -- patching ------------------------------------------------------------

    def _wrapper(self, name, fn, after):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                try:
                    after(self, args, kwargs, result)
                except Exception as exc:  # a stale hook must not fail the op
                    self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, modules, functions, methods):
        """Wrap functions where they are bound and methods on their class.

        ``functions`` holds ``(span name, original, after)`` triples; every
        attribute of every module in ``modules`` that is the original is
        replaced.  ``methods`` holds ``(span name, class, attribute,
        after)``.  ``after(tracer, args, kwargs, result)``, when given, runs
        after a call returns and updates counters; an error it raises is
        kept in ``hook_errors`` and does not reach the caller.
        """
        for name, original, after in functions:
            wrapper = self._wrapper(name, original, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for name, cls, attr, after in methods:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrapper(name, original, after))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
