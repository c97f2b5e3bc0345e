"""REPRO004 — async hygiene: the stream event loop only moves bytes.

The streaming contract (streamed ≡ in-process, bounded backpressure) depends
on the asyncio loop staying responsive: :class:`~repro.stream.node.CameraNode`
and :class:`~repro.stream.receiver.StreamReceiver` run every capture and
solve on a worker executor (``loop.run_in_executor``) and keep only byte
movement on the loop.  A single blocking call inside an ``async def`` —
``time.sleep``, a synchronous socket operation, a direct ``capture``/solve —
stalls *every* stream multiplexed on that loop, which is precisely the
failure mode the fleet-scale receiver hub (ROADMAP item 1) cannot afford.

The rule walks ``async def`` bodies in :mod:`repro.stream` (skipping nested
``def``/``lambda`` bodies, which are exactly what gets shipped *to* the
executor) and flags known-blocking calls.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro._lint.engine import Finding, ModuleContext
from repro._lint.rules.base import Rule, dotted_name

#: Attribute/function names whose direct call does heavy numpy/BLAS work or
#: sleeps — never to run on the event loop itself.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
    }
)

#: Method names of the capture/solve families: CPU-bound library work that
#: must be dispatched via ``run_in_executor`` from async code.
BLOCKING_METHODS = frozenset(
    {
        "capture",
        "capture_batch",
        "capture_scene",
        "capture_sequence",
        "capture_scene_sequence",
        "reconstruct_frame",
        "reconstruct_tiled",
    }
)

#: Synchronous socket entry points (asyncio transports replace all of these).
_SYNC_SOCKET_PREFIXES = ("socket.",)


def _is_blocking(name: str) -> str:
    """Classify a dotted call name; return a reason string or ``""``."""
    if name in BLOCKING_CALLS:
        return f"`{name}` sleeps on the event loop"
    if name.startswith(_SYNC_SOCKET_PREFIXES):
        return f"synchronous socket operation `{name}`"
    terminal = name.split(".")[-1]
    if terminal in BLOCKING_METHODS:
        return f"direct `{terminal}` call (CPU-bound capture/solve work)"
    return ""


class _AsyncBodyVisitor(ast.NodeVisitor):
    """Collect Call nodes that execute directly on the event loop."""

    def __init__(self) -> None:
        self.calls: list[ast.Call] = []
        self._async_depth = 0

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._async_depth += 1
        for child in node.body:
            self.visit(child)
        self._async_depth -= 1

    def _visit_sync_scope(self, node: ast.AST) -> None:
        # A nested def/lambda is not executed by the loop when defined — it
        # is typically the very thunk handed to run_in_executor.
        saved = self._async_depth
        self._async_depth = 0
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self._async_depth = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_sync_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_sync_scope(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self._async_depth > 0:
            self.calls.append(node)
        self.generic_visit(node)


class AsyncHygieneRule(Rule):
    rule_id = "REPRO004"
    contract = "async hygiene: no blocking calls on the stream event loop"

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        if not context.is_library:
            return
        if context.module_rel is None or not context.module_rel.startswith(
            "repro/stream/"
        ):
            return
        visitor = _AsyncBodyVisitor()
        visitor.visit(context.tree)
        for call in visitor.calls:
            name = dotted_name(call.func)
            if name is None:
                continue
            reason = _is_blocking(name)
            if reason:
                yield self.finding(
                    context,
                    call,
                    f"blocking call inside async def: {reason}",
                    hint=(
                        "dispatch through loop.run_in_executor (see "
                        "CameraNode._run / FairSolveScheduler._worker) or use "
                        "the asyncio equivalent; the loop must only move bytes"
                    ),
                )


RULE = AsyncHygieneRule()
