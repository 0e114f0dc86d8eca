"""Spans and counters recorded from outside the program.

The benchmark times each layer by wrapping the public calls into it:
no source module changes.  :class:`Tracer` patches a function or method
*where callers look it up*: a module-level function is replaced in every
loaded module that holds it (``repro.spice.transient`` binds
``newton_solve`` at import, so patching ``repro.spice.dcop`` alone would
miss every transient Newton call), and a method is replaced on each class
that defines it.  :meth:`Tracer.uninstall` puts every original back.

Every counter and span aggregate is updated under the tracer's own lock,
never through the program's unlocked process-global statistics.

With ``spans=False`` the wrappers skip all timing and only run their
hooks; the measured (untraced) run uses that to record the dense/sparse
and executor choices at a cost of one extra call per compile or sweep.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass

#: Spans kept in memory for the trace file; later ones are only counted.
MAX_SPANS = 100_000


@dataclass(frozen=True)
class Target:
    """One call to wrap.

    ``where`` is ``"module:function"`` or ``"module:Class.method"``;
    a method is wrapped on ``Class`` and on every subclass that defines
    it.  ``layer`` names the span (``None``: hooks only, no span — used
    for blocking calls such as a queue pop, whose duration is idle time).
    ``before(call)`` runs ahead of the wrapped call and its return value
    is handed to ``after(tracer, call, result, pre)`` and to
    ``failed(tracer, call, exc)``.
    """

    where: str
    layer: str | None
    before: object = None
    after: object = None
    failed: object = None


@dataclass
class Call:
    """What a hook sees of one wrapped call."""

    args: tuple
    kwargs: dict
    parent: str | None  #: layer of the enclosing span on this thread

    def arg(self, index: int, name: str, default=None):
        """A positional-or-keyword argument of the wrapped call."""
        if name in self.kwargs:
            return self.kwargs[name]
        if index < len(self.args):
            return self.args[index]
        return default


class _Frame:
    __slots__ = ("id", "layer", "start", "child", "outer")

    def __init__(self, span_id, layer, start, outer):
        self.id = span_id
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.outer = outer  #: first frame of this layer on the stack


class Tracer:
    """Records spans at layer boundaries plus counters, thread-safely.

    ``layers[name]`` is ``[calls, inclusive_s, self_s]``.  A layer
    re-entered from inside itself (a batched solve looping the scalar
    solve) counts one call and one inclusive duration; self time is
    split exactly, so the self times of all layers plus the time spent
    outside every span add up to the wall clock of a single thread.
    """

    def __init__(self, spans: bool = True, clock=time.perf_counter):
        self.spans_enabled = spans
        self.clock = clock
        self.layers: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        #: (id, parent_id, layer, thread, request, start, end), kept in
        #: memory and written out when the run ends.
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.span_count = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._active = True
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -----------------------------------------------------------

    def _after_fork(self) -> None:
        # A pool worker forked from a traced parent must not record into
        # (or block on) a copy of the parent's state.
        self._active = False
        self._lock = threading.Lock()

    def pause(self) -> None:
        """Stop recording; wrapped calls pass straight through."""
        self._active = False

    def resume(self) -> None:
        self._active = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id) -> None:
        """Tag later spans on this thread with one request's id."""
        self._local.request = request_id

    def parent_layer(self) -> str | None:
        stack = self._stack()
        return stack[-1].layer if stack else None

    def inside(self, layer: str) -> bool:
        """True when a span of ``layer`` is open on this thread."""
        return any(frame.layer == layer for frame in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def enter(self, layer: str) -> _Frame:
        stack = self._stack()
        outer = next((f for f in reversed(stack) if f.layer == layer), None)
        frame = _Frame(next(self._ids), layer, self.clock(), outer)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        stack = self._stack()
        stack.pop()
        parent = stack[-1] if stack else None
        duration = end - frame.start
        if parent is not None:
            parent.child += duration
        with self._lock:
            record = self.layers.get(frame.layer)
            if record is None:
                record = self.layers[frame.layer] = [0, 0.0, 0.0]
            self.span_count += 1
            if frame.outer is None:
                record[0] += 1
                record[1] += duration
            record[2] += duration - frame.child
            if len(self.spans) < MAX_SPANS:
                self.spans.append((
                    frame.id, parent.id if parent is not None else 0,
                    frame.layer, threading.get_ident(),
                    getattr(self._local, "request", None),
                    frame.start, end,
                ))
            else:
                self.dropped_spans += 1

    # -- patching ------------------------------------------------------------

    def _wrapper(self, fn, target: Target):
        tracer = self
        layer = target.layer if self.spans_enabled else None
        before, after, failed = target.before, target.after, target.failed

        if before is None and after is None and failed is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer._active or layer is None:
                    return fn(*args, **kwargs)
                frame = tracer.enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit(frame)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            call = Call(args, kwargs, tracer.parent_layer())
            pre = before(call) if before is not None else None
            frame = tracer.enter(layer) if layer is not None else None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if frame is not None:
                    tracer.exit(frame)
                if failed is not None:
                    failed(tracer, call, exc)
                raise
            if frame is not None:
                tracer.exit(frame)
            if after is not None:
                after(tracer, call, result, pre)
            return result

        return wrapper

    def _patch(self, owner, name: str, original, replacement) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def install(self, targets) -> None:
        """Wrap every target; call :meth:`uninstall` to restore."""
        functions: dict[int, tuple] = {}
        for target in targets:
            module_name, _, attr = target.where.partition(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                base = getattr(module, class_name)
                for cls in _with_subclasses(base):
                    if method in cls.__dict__:
                        original = cls.__dict__[method]
                        self._patch(cls, method, original,
                                    self._wrapper(original, target))
            else:
                original = getattr(module, attr)
                functions[id(original)] = (
                    original, self._wrapper(original, target))
        # Module-level functions: replace the name in every loaded
        # module that bound it (``from .dcop import newton_solve``).
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                entry = functions.get(id(value))
                if entry is not None and value is entry[0]:
                    self._patch(module, name, value, entry[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @property
    def patched(self) -> list[tuple]:
        """``(owner, name, original)`` for every live patch."""
        return list(self._patches)


def _with_subclasses(cls) -> list:
    seen = [cls]
    for sub in cls.__subclasses__():
        for item in _with_subclasses(sub):
            if item not in seen:
                seen.append(item)
    return seen
