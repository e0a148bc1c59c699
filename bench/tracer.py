"""In-memory spans recorded by wrapping a package's public functions.

The library carries no instrumentation of its own, so the benchmark times
each layer from outside: every public function defined in a layer module
is replaced by a wrapper that records a span (name, start, end, parent).
A function is usually reachable under several names (``optimizer.
optimize_key_rate`` and ``cli.optimize_key_rate`` are the same object), so
the wrapper replaces every module attribute bound to the original, which
also covers calls a module makes to its own functions. Spans stay in
memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import threading
import time


class Tracer:
    """Span recorder; one stack of open spans per thread."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent span or None, error, info]
        self._local = threading.local()
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, info=None) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), None, stack[-1] if stack else None,
                None, info]
        self.spans.append(span)   # a single append is atomic across threads
        stack.append(span)
        return span

    def _close(self, span: list, error: str | None = None) -> None:
        span[2] = time.perf_counter()
        span[4] = error
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, info=None):
        """Span opened by the benchmark itself around a call it makes."""
        span = self._open(name, info)
        try:
            yield span
        except BaseException as exc:
            self._close(span, type(exc).__name__)
            raise
        self._close(span)

    def wrap(self, name: str, fn, annotate=None):
        """Wrapper recording one span per call of ``fn``.

        ``annotate(args, kwargs, result)`` may attach a value to the span
        after a successful call; its cost falls outside the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, type(exc).__name__)
                raise
            self._close(span)
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str, layers: dict, annotators: dict) -> None:
        """Wrap the public functions of each layer module of ``package``.

        ``layers`` maps a layer name to its module; ``annotators`` maps a
        span name such as ``"cli.main_entry"`` to an annotate function.
        """
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None
                   and (name == package or name.startswith(package + "."))]
        for layer, module in layers.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn, annotators.get(name))
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._restore.append((holder, key, fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    def self_times(self) -> dict:
        """Seconds of each span name's own work, excluding its children."""
        children = {}
        for span in self.spans:
            if span[3] is not None and span[2] is not None:
                key = id(span[3])
                children[key] = children.get(key, 0.0) + span[2] - span[1]
        own = {}
        for span in self.spans:
            if span[2] is None:
                continue
            dur = span[2] - span[1] - children.get(id(span), 0.0)
            own[span[0]] = own.get(span[0], 0.0) + dur
        return own

    def dump(self, handle) -> None:
        """Write the spans to a text handle, one tab-separated line each:
        index, parent index, name, start, end (perf_counter seconds),
        error, info."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        handle.write("index\tparent\tname\tstart_s\tend_s\terror\tinfo\n")
        for i, (name, start, end, parent, error, info) in enumerate(self.spans):
            handle.write(f"{i}\t{'' if parent is None else index[id(parent)]}\t"
                         f"{name}\t{start!r}\t{end!r}\t{error or ''}\t"
                         f"{'' if info is None else json.dumps(info)}\n")
