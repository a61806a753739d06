"""Protocol-conformance rules (PROTO001–PROTO004) — whole-program.

The paper's correctness story is a *conversation* contract: every message a
server emits must be handled within the temporal window, every published
name must be resolvable, every trace category selectable.  None of that is
visible one file at a time — the sender lives in ``core``, the handler in
``cluster`` or ``replicas``.  These rules query the
:class:`~repro.lint.project.ProjectModel` built in phase one:

* **PROTO001** — a message type (a class with a wire ``TYPE`` tag) is
  constructed outside its defining module, but no module dispatches on it:
  the message would sail through ``decode_message`` and die in a default
  branch.
* **PROTO002** — the mirror image: a handler dispatches on a message type
  nobody constructs outside the codec module — dead protocol surface that
  rots silently.
* **PROTO003** — a NameService role string is published but matches no
  lookup prefix (or a lookup prefix matches nothing anyone publishes):
  the read topology advertised and the read topology consulted diverge.
* **PROTO004** — a trace category recorded/selected anywhere in library
  code is missing from the declared vocabulary
  (``repro.sim.categories.ALL_CATEGORIES``).  Supersedes the per-file
  TR001 rule: the vocabulary is now read *statically* from the project's
  own ``categories`` module when present, so the analyzer works on trees
  it cannot import.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.finding import Finding
from repro.lint.project import ProjectModel, Site
from repro.lint.registry import ProjectRule, register

#: Tracer methods whose first positional argument is a category name.
CATEGORY_METHODS = frozenset({"record", "select"})

#: NameService methods that *publish* a role string (second positional /
#: ``role=`` argument) and those that *consume* one (``role=`` exact or
#: ``prefix=`` prefix match).
ROLE_PUBLISH_METHODS = frozenset({"publish_role"})
ROLE_EXACT_LOOKUP_METHODS = frozenset({"peek_role", "unpublish_role"})
ROLE_PREFIX_LOOKUP_METHODS = frozenset({"lookup_roles", "role_entries"})


@register
class UndispatchedMessageRule(ProjectRule):
    """PROTO001 — message type constructed/sent but never dispatched.

    A "message type" is any project class carrying an integer ``TYPE`` /
    ``TYPE_*`` tag (the wire-protocol convention).  Constructions and
    dispatches *inside* the defining module do not count — that is the
    codec round-tripping its own vocabulary; conformance means some other
    module actually handles the type via ``isinstance``, a ``match`` arm,
    or a typed ``_handle_*`` parameter.
    """

    code = "PROTO001"
    summary = ("message type constructed but no module dispatches on it "
               "(isinstance / match / typed handler)")

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        for info in project.message_classes():
            if not info.path or "src/repro" not in info.path \
                    and not info.path.startswith("repro/"):
                continue
            sent = project.constructed_outside(info)
            if not sent:
                continue
            if project.dispatched_outside(info):
                continue
            senders = sorted({site.module for site in sent})
            yield self.project_finding(
                info.path, info.node,
                f"message type {info.name} is constructed in "
                f"{', '.join(senders)} but never dispatched by any "
                f"handler; a peer receiving it would drop it on the floor")


@register
class UnsentMessageRule(ProjectRule):
    """PROTO002 — handler dispatches on a message type nobody sends.

    Fires at the dispatch site (the dead handler arm), once per message
    type, at the lexicographically first dispatch.  The defining module's
    own constructions (``decode_message`` rebuilding every type) do not
    count as "someone sends this".
    """

    code = "PROTO002"
    summary = ("handler dispatches on a message type no module constructs "
               "(dead protocol arm)")

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        for info in project.message_classes():
            dispatched = project.dispatched_outside(info)
            if not dispatched:
                continue
            if project.constructed_outside(info):
                continue
            site = dispatched[0]
            if not site.path or "src/repro" not in site.path \
                    and not site.path.startswith("repro/"):
                continue
            yield self.project_finding(
                site.path, site.node,
                f"handler dispatches on {info.name}, which no module "
                f"outside {info.module} ever constructs; dead protocol "
                f"arm or missing sender")


def _role_argument(call: ast.Call, position: int,
                   keyword: str) -> Optional[ast.expr]:
    """The role/prefix argument of a NameService call, if present."""
    if len(call.args) > position:
        return call.args[position]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def _joined_prefix(node: ast.JoinedStr) -> Optional[str]:
    """Leading constant text of an f-string (``f"replica{n}"`` -> "replica")."""
    if node.values and isinstance(node.values[0], ast.Constant) \
            and isinstance(node.values[0].value, str):
        return node.values[0].value
    return None


@register
class RoleConformanceRule(ProjectRule):
    """PROTO003 — published NameService roles vs. consumed role prefixes.

    Role strings resolve through literals, cross-module constants
    (``REPLICA_ROLE_PREFIX``), and f-string leading text (``f"replica{n}"``
    publishes under the ``replica`` prefix).  A side containing a role the
    analyzer cannot resolve is treated as *open* — it can match anything,
    so nothing on the opposite side is flagged.  Only provable mismatches
    fire; that keeps the rule honest on dynamic topologies.
    """

    code = "PROTO003"
    summary = ("NameService role published but never looked up "
               "(or looked up but never published)")

    def _resolve_role(self, project: ProjectModel, site: Site,
                      node: ast.expr) -> Tuple[Optional[str], bool]:
        """``(text, is_prefix)``; ``(None, _)`` when unresolvable."""
        if isinstance(node, ast.JoinedStr):
            prefix = _joined_prefix(node)
            return (prefix, True) if prefix else (None, False)
        info = project.by_path.get(site.path)
        if info is None:
            return (None, False)
        value = project.symbols.resolve_constant(info.ctx, site.module, node)
        if isinstance(value, str):
            return (value, False)
        return (None, False)

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        published: List[Tuple[str, bool, Site, ast.expr]] = []
        consumed: List[Tuple[str, bool, Site, ast.expr]] = []
        publish_open = False
        consume_open = False
        for method, sink, position, keyword, prefix_semantics in (
                ("publish_role", "pub", 1, "role", False),
                ("peek_role", "sub", 1, "role", False),
                ("unpublish_role", "sub", 1, "role", False),
                ("lookup_roles", "sub", 1, "prefix", True),
                ("role_entries", "sub", 1, "prefix", True)):
            for site in project.calls(method):
                info = project.by_path.get(site.path)
                if info is None or not info.in_src:
                    continue
                call = site.node
                assert isinstance(call, ast.Call)
                argument = _role_argument(call, position, keyword)
                if argument is None:
                    # lookup_roles() with the default empty prefix matches
                    # everything: the consuming side is open.
                    if sink == "sub":
                        consume_open = True
                    continue
                text, is_prefix = self._resolve_role(project, site, argument)
                if text is None:
                    if sink == "pub":
                        publish_open = True
                    else:
                        consume_open = True
                    continue
                record = (text, is_prefix or prefix_semantics, site, argument)
                if sink == "pub":
                    published.append(record)
                else:
                    consumed.append(record)

        def matches(a: Tuple[str, bool, Site, ast.expr],
                    b: Tuple[str, bool, Site, ast.expr]) -> bool:
            text_a, prefix_a = a[0], a[1]
            text_b, prefix_b = b[0], b[1]
            if prefix_a or prefix_b:
                return text_a.startswith(text_b) or text_b.startswith(text_a)
            return text_a == text_b

        if not consume_open and (published or consumed):
            for pub in published:
                if any(matches(pub, sub) for sub in consumed):
                    continue
                text, _, site, argument = pub
                yield self.project_finding(
                    site.path, argument,
                    f"role {text!r} is published but no lookup_roles/"
                    f"peek_role consumer ever resolves it; readers will "
                    f"never find this seat")
        if not publish_open:
            for sub in consumed:
                if any(matches(pub, sub) for pub in published):
                    continue
                text, is_prefix, site, argument = sub
                kind = "prefix" if is_prefix else "role"
                yield self.project_finding(
                    site.path, argument,
                    f"{kind} {text!r} is looked up but no publish_role "
                    f"call ever publishes a matching role; this lookup "
                    f"can only ever be empty")


def _receiver_name(func: ast.Attribute) -> Optional[str]:
    """Terminal name of the receiver: ``self.sim.trace`` -> ``trace``."""
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


@register
class UndeclaredCategoryRule(ProjectRule):
    """PROTO004 — trace categories must be declared in the vocabulary.

    The declared vocabulary is read statically from the project's own
    ``categories`` module (any module defining ``ALL_CATEGORIES``: its
    uppercase string constants), falling back to the installed
    :mod:`repro.sim.categories` when the analyzed tree does not include
    one — so single-file runs keep full coverage.  Library code only:
    tests exercising the ``Tracer`` itself record throwaway categories.
    Receivers are matched by name (terminal identifier contains
    ``trace``), mirroring the codebase convention
    (``self.sim.trace.record(...)``).
    """

    code = "PROTO004"
    summary = ("trace category not declared in the project's "
               "categories vocabulary (supersedes TR001)")

    def _declared(self, project: ProjectModel) -> Set[str]:
        for info in project.iter_modules():
            constants = project.symbols.module_constants.get(info.name, {})
            has_registry = any(
                isinstance(stmt, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "ALL_CATEGORIES"
                        for target in stmt.targets)
                for stmt in info.ctx.tree.body)
            if not has_registry:
                continue
            return {value for name, value in sorted(constants.items())
                    if name.isupper() and isinstance(value, str)}
        from repro.sim.categories import ALL_CATEGORIES
        return set(ALL_CATEGORIES)

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        declared = self._declared(project)
        for method in sorted(CATEGORY_METHODS):
            for site in project.calls(method):
                info = project.by_path.get(site.path)
                if info is None or not info.in_src:
                    continue
                call = site.node
                assert isinstance(call, ast.Call)
                if not (isinstance(call.func, ast.Attribute) and call.args):
                    continue
                receiver = _receiver_name(call.func)
                if receiver is None or "trace" not in receiver.lower():
                    continue
                first = call.args[0]
                if not (isinstance(first, ast.Constant)
                        and isinstance(first.value, str)):
                    continue
                if first.value not in declared:
                    yield self.project_finding(
                        site.path, first,
                        f"trace category {first.value!r} is not declared "
                        f"in the categories vocabulary")
