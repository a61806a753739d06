"""Set-order flow rule (RACE001).

Simulation callbacks are the concurrency model here: every scheduled event
and delivered message runs some method against shared object state, and the
run's auditability (byte-identical digests, Theorem-5 window checks) assumes
those interleavings follow an order someone chose.  RACE001 follows a set
value bound to a *name* (assignment or parameter annotation) to an
iteration whose body or comprehension feeds a sink (``schedule``, ``send``,
``record``, ...): hash order then reaches the event queue or the trace.

A set of strings leaks ``PYTHONHASHSEED`` into the run, which the CI runs
under two hash seeds catch wherever a sweep reaches the site.  A set of
ints or int tuples iterates in an order that replays exactly, yet is still
nobody's choice: a refactor that turns ``sorted(pending)`` into a set
changes which same-instant event goes first, and no replay can tell the
new order from an intended one.  That half is what this rule is for.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Union

from repro.lint.context import FileContext
from repro.lint.finding import Finding
from repro.lint.registry import Rule, register

AnyFunc = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Terminal callee names whose arguments/bodies must see a chosen order:
#: the event queue, the fabric, and the trace.
DETERMINISTIC_SINKS = frozenset({
    "schedule", "send", "record", "publish", "publish_role", "push", "emit",
})

#: Set-returning callables (iteration order is hash order).
_SET_CALLS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})
#: Annotations naming an unordered set type.
_SET_ANNOTATIONS = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
    "typing.Set", "typing.FrozenSet", "typing.AbstractSet",
    "typing.MutableSet",
})
#: Calls that impose an order (assigning their result clears the taint).
_ORDERING_CALLS = frozenset({"sorted", "list", "tuple"})


def _is_set_expr(node: ast.AST, ctx: FileContext) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if ctx.qualified_name(node.func) in _SET_CALLS:
            return True
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _SET_METHODS:
            return True
    return False


def _is_set_annotation(node: ast.AST, ctx: FileContext) -> bool:
    target: ast.AST = node
    if isinstance(node, ast.Subscript):  # set[int], Set[str]
        target = node.value
    return ctx.qualified_name(target) in _SET_ANNOTATIONS


def _unordered_names(func: AnyFunc, ctx: FileContext) -> Set[str]:
    """Names bound to unordered set values anywhere in ``func``.

    Flow-insensitive by design: a name counts while *any* binding is a set
    and *no* binding funnels it through ``sorted``/``list``/``tuple`` —
    rebinding to an ordered form anywhere absolves every use, which keeps
    the rule on the quiet side of approximate.
    """
    tainted: Set[str] = set()
    cleared: Set[str] = set()
    args = func.args
    for arg in (list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)):
        if arg.annotation is not None \
                and _is_set_annotation(arg.annotation, ctx):
            tainted.add(arg.arg)
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
            if _is_set_annotation(node.annotation, ctx) \
                    and isinstance(node.target, ast.Name):
                tainted.add(node.target.id)
        if value is None:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if _is_set_expr(value, ctx):
                tainted.add(target.id)
            elif isinstance(value, ast.Call) \
                    and ctx.qualified_name(value.func) in _ORDERING_CALLS:
                cleared.add(target.id)
    return tainted - cleared


def _sink_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _has_sink_call(stmts: List[ast.stmt]) -> bool:
    return any(isinstance(child, ast.Call)
               and _sink_name(child) in DETERMINISTIC_SINKS
               for stmt in stmts for child in ast.walk(stmt))


@register
class UnorderedFlowRule(Rule):
    """RACE001 — unordered set iteration flowing into a deterministic sink.

    Two shapes fire: a ``for`` loop over a set-valued name whose body
    reaches a sink call, and a comprehension over a set-valued name used
    inside a sink call's arguments.  ``for x in sorted(peers)`` never
    fires — the iteration target is an ordering call, not the tainted
    name.  Library code only.
    """

    code = "RACE001"
    summary = ("iteration over a set-valued name feeds schedule/send/"
               "trace; wrap the iteration in sorted(...)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_src:
            return
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            tainted = _unordered_names(func, ctx)
            if tainted:
                yield from self._check_function(ctx, func, tainted)

    def _check_function(self, ctx: FileContext, func: AnyFunc,
                        tainted: Set[str]) -> Iterator[Finding]:
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor)) \
                    and isinstance(node.iter, ast.Name) \
                    and node.iter.id in tainted \
                    and _has_sink_call(node.body):
                yield self.finding(
                    ctx, node.iter,
                    f"iterating set-valued {node.iter.id!r} feeds a "
                    f"schedule/send/trace sink; hash order reaches the "
                    f"run — iterate sorted({node.iter.id}) instead")
            elif isinstance(node, ast.Call):
                sink = _sink_name(node)
                if sink not in DETERMINISTIC_SINKS:
                    continue
                for child in ast.walk(node):
                    if isinstance(child, ast.comprehension) \
                            and isinstance(child.iter, ast.Name) \
                            and child.iter.id in tainted:
                        yield self.finding(
                            ctx, child.iter,
                            f"comprehension over set-valued "
                            f"{child.iter.id!r} inside a {sink}() call "
                            f"bakes hash order into the run; iterate "
                            f"sorted({child.iter.id}) instead")
