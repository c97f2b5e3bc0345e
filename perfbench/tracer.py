"""Benchmark-side layer tracer: timed wrappers around public functions.

The tracer never edits the program.  It replaces a public function *at the
place the program looks it up* — a module global such as
``repro.stream.session.decode_frame`` (the name ``session.py`` imported), a
class attribute such as ``CompressiveImager.capture_batch``, or an entry of a
dispatch table such as ``repro.recon.pipeline._SOLVERS["fista"]`` — with a
wrapper that times the call, and puts every original back on
:meth:`Tracer.uninstall`.

Spans nest per thread, so a probe can report either

* ``inclusive`` time — the wall time of the outermost call of that metric on
  the thread (a nested call of the same metric adds a call, not time);
* ``self`` time — the call's duration minus the traced calls it made on the
  same thread (how ``fista``'s own work is separated from the matvecs,
  dictionary transforms and step-size estimate it drives);
* ``async_self`` time — for a coroutine function, the time its coroutine
  actually ran on the event loop (suspensions excluded) minus traced calls
  made while it ran;
* ``wall`` time — for a coroutine function, the wall time of the await,
  suspensions included (how long callers waited in it).

A ``fans_out`` probe runs work on other threads (a tiled capture hands its
tiles to a pool): while one is open, calls of the same metric on other
threads add calls but no time, so the metric is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import types
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Probe:
    """One traced public function and the metric its calls feed."""

    target: str  # "module:Attr.path" or "module:TABLE[key]"
    metric: str
    mode: str = "inclusive"  # inclusive | self | async_self | wall
    fans_out: bool = False
    on_result: Callable[[Any, tuple, dict], None] | None = None
    on_return: Callable[[tuple, dict, float], None] | None = None


@dataclass
class _Frame:
    metric: str
    child: float = 0.0


@dataclass
class _Patch:
    owner: Any
    key: str
    original: Any
    in_table: bool


@dataclass
class LayerTotals:
    """Accumulated seconds and calls per metric and per target."""

    seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    target_calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))


def _resolve(target: str) -> tuple[Any, str, bool]:
    """Owner object, attribute (or table key) and whether it is a table."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    if path.endswith("]"):
        table_name, _, key = path[:-1].partition("[")
        for part in table_name.split("."):
            owner = getattr(owner, part)
        return owner, key, True
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute, False


def _current(owner: Any, key: str, in_table: bool) -> Any:
    """What the lookup site holds now (a class's own attribute, unbound)."""
    if in_table:
        return owner[key]
    if isinstance(owner, type):
        return owner.__dict__[key]
    return getattr(owner, key)


class Tracer:
    """Installs timing wrappers for a list of probes and restores them."""

    def __init__(self, probes: list[Probe]) -> None:
        self.probes = list(probes)
        self.totals = LayerTotals()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_fan_outs: dict[str, int] = defaultdict(int)
        self._patches: list[_Patch] = []

    # ------------------------------------------------------------ bookkeeping
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, probe: Probe, seconds: float, *, count_time: bool) -> None:
        with self._lock:
            self.totals.calls[probe.metric] += 1
            self.totals.target_calls[probe.target] += 1
            if count_time:
                self.totals.seconds[probe.metric] += seconds

    # --------------------------------------------------------------- wrappers
    def _sync_wrapper(self, probe: Probe, original: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            outermost = all(frame.metric != probe.metric for frame in stack)
            frame = _Frame(probe.metric)
            stack.append(frame)
            if probe.fans_out:
                with tracer._lock:
                    tracer._open_fan_outs[probe.metric] += 1
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1].child += elapsed
                if probe.fans_out:
                    with tracer._lock:
                        tracer._open_fan_outs[probe.metric] -= 1
                if probe.mode == "self":
                    tracer._record(probe, elapsed - frame.child, count_time=True)
                else:
                    covered = not probe.fans_out and tracer._open_fan_outs[probe.metric] > 0
                    tracer._record(probe, elapsed, count_time=outermost and not covered)
            if probe.on_result is not None:
                probe.on_result(result, args, kwargs)
            return result

        return traced

    def _async_wrapper(self, probe: Probe, original: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        if probe.mode == "wall":

            @functools.wraps(original)
            async def traced_wall(*args: Any, **kwargs: Any) -> Any:
                started = time.perf_counter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    ended = time.perf_counter()
                    tracer._record(probe, ended - started, count_time=True)
                    if probe.on_return is not None:
                        probe.on_return(args, kwargs, ended)

            return traced_wall

        @types.coroutine
        def drive(coroutine: Any) -> Any:
            # Step the coroutine by hand so that only the time it actually
            # runs on the loop thread is counted; a span lives for one step,
            # never across a suspension, so interleaved coroutines cannot
            # corrupt the per-thread span stack.
            running = 0.0
            to_send: Any = None
            to_throw: BaseException | None = None
            try:
                while True:
                    stack = tracer._stack()
                    frame = _Frame(probe.metric)
                    stack.append(frame)
                    started = time.perf_counter()
                    try:
                        if to_throw is not None:
                            yielded = coroutine.throw(to_throw)
                        else:
                            yielded = coroutine.send(to_send)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        elapsed = time.perf_counter() - started
                        stack.pop()
                        if stack:
                            stack[-1].child += elapsed
                        running += elapsed - frame.child
                    try:
                        to_send, to_throw = (yield yielded), None
                    except GeneratorExit:
                        raise
                    except BaseException as error:  # re-thrown into the coroutine
                        to_send, to_throw = None, error
            finally:
                coroutine.close()
                tracer._record(probe, running, count_time=True)

        @functools.wraps(original)
        async def traced_self(*args: Any, **kwargs: Any) -> Any:
            return await drive(original(*args, **kwargs))

        return traced_self

    # ---------------------------------------------------------- install/undo
    def install(self) -> None:
        """Wrap every probe's target; raises if a target does not resolve."""
        for probe in self.probes:
            owner, key, in_table = _resolve(probe.target)
            original = _current(owner, key, in_table)
            if probe.mode in ("wall", "async_self"):
                wrapped = self._async_wrapper(probe, original)
            else:
                wrapped = self._sync_wrapper(probe, original)
            self._patches.append(_Patch(owner, key, original, in_table))
            if in_table:
                owner[key] = wrapped
            else:
                setattr(owner, key, wrapped)

    def uninstall(self) -> list[str]:
        """Restore every original; returns the targets that did not restore."""
        for patch in reversed(self._patches):
            if patch.in_table:
                patch.owner[patch.key] = patch.original
            else:
                setattr(patch.owner, patch.key, patch.original)
        broken = [
            f"{patch.owner!r}.{patch.key}"
            for patch in self._patches
            if _current(patch.owner, patch.key, patch.in_table) is not patch.original
        ]
        self._patches.clear()
        return broken

    def missing_calls(self, expected: list[str]) -> list[str]:
        """Expected targets that recorded no call (a moved call site)."""
        return [target for target in expected if not self.totals.target_calls.get(target)]
