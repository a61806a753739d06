"""Hot-path tracing rule (PERF001).

The simulation core's hot loops must not pay for dead trace categories.
``Tracer.record`` builds a kwargs dict at the call site before the filter
can drop the record, so a ``trace.record(...)`` with computed field values
inside a ``repro.sim`` / ``repro.sched`` loop body needs an
``if trace.enabled(category):`` guard.  The guard changes no output byte
(``enabled()`` is true exactly when ``record()`` keeps or delivers the
record), so no run can tell a missing guard from a present one.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.finding import Finding
from repro.lint.registry import Rule, register

#: Keyword-value node types that are cheap enough to build unconditionally.
#: Anything else (calls, arithmetic, f-strings, subscripts, comparisons,
#: comprehensions) is "non-trivial": real work done before the filter can
#: drop the record.
_TRIVIAL_FIELD_NODES = (ast.Constant, ast.Name, ast.Attribute)

#: Loop statements whose bodies PERF001 polices.
_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)

#: Scope boundaries the loop-body scan does not cross: a function or class
#: defined inside a loop runs on its own schedule, not once per iteration.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                ast.Lambda)


def _is_trace_record_call(node: ast.Call) -> bool:
    """``<something>.trace.record(...)`` / ``trace.record(...)`` shapes."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "record"):
        return False
    owner = func.value
    if isinstance(owner, ast.Attribute):
        return owner.attr in ("trace", "tracer")
    if isinstance(owner, ast.Name):
        return owner.id in ("trace", "tracer")
    return False


def _mentions_enabled(test: ast.expr) -> bool:
    """Whether an ``if`` test consults ``.enabled(...)`` (or ``enabled``)."""
    for node in ast.walk(test):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "enabled":
                return True
            if isinstance(func, ast.Name) and func.id == "enabled":
                return True
    return False


def _has_computed_fields(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg is None:  # **kwargs: opaque, assume computed
            return True
        if not isinstance(keyword.value, _TRIVIAL_FIELD_NODES):
            return True
    return False


@register
class UnguardedHotTraceRule(Rule):
    """PERF001 — unguarded computed-field tracing in a sim/sched loop body.

    ``Tracer.record(category, **fields)`` evaluates every field expression
    and builds the kwargs dict *before* the category filter can reject the
    record, so a dead category still pays the full call-site cost on every
    iteration.  Inside the simulation core's loops that cost compounds into
    whole-run slowdowns; guard the site::

        if trace.enabled("queue_depth"):
            trace.record("queue_depth", depth=len(self._queue))

    The guard is digest-neutral by construction — ``enabled()`` is true
    exactly when ``record()`` would keep or deliver the record.  Only
    ``repro.sim`` and ``repro.sched`` are policed: elsewhere clarity wins
    until a profile says otherwise.
    """

    code = "PERF001"
    summary = ("unguarded trace.record(...) with computed fields in a "
               "sim/sched loop body; wrap in `if trace.enabled(...):`")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_src:
            return
        if not ("repro/sim/" in ctx.path or "repro/sched/" in ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, _LOOP_NODES):
                yield from self._scan(ctx, node.body, guarded=False)

    def _scan(self, ctx: FileContext, stmts: list,
              guarded: bool) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, _SCOPE_NODES):
                continue
            if isinstance(stmt, ast.If):
                yield from self._scan(
                    ctx, stmt.body,
                    guarded or _mentions_enabled(stmt.test))
                yield from self._scan(ctx, stmt.orelse, guarded)
                continue
            if isinstance(stmt, _LOOP_NODES):
                yield from self._scan(ctx, stmt.body, guarded)
                yield from self._scan(ctx, stmt.orelse, guarded)
                continue
            if guarded:
                continue
            for node in ast.walk(stmt):
                if isinstance(node, _SCOPE_NODES):
                    continue
                if (isinstance(node, ast.Call)
                        and _is_trace_record_call(node)
                        and _has_computed_fields(node)):
                    yield self.finding(
                        ctx, node,
                        "trace.record(...) with computed fields in a loop "
                        "body; guard with `if trace.enabled(...):` so dead "
                        "categories cost one cached lookup")
