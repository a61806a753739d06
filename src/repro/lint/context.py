"""Per-file lint context: parsed AST, source lines, and name resolution.

Every rule receives one :class:`FileContext` per file.  The context owns the
pieces rules keep re-deriving — the parsed tree, the import-alias table used
to resolve dotted call targets (``from time import time as now`` makes
``now()`` resolve to ``time.time``), and a :meth:`finding` factory that
stamps the file path.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Dict, List, Optional

from repro.lint.finding import Finding


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the fully qualified names they import.

    ``import time as t`` yields ``{"t": "time"}``; ``from datetime import
    datetime`` yields ``{"datetime": "datetime.datetime"}``.  Only module-
    and import-level bindings are tracked — rebinding an imported name later
    in the file is out of scope for this linter's precision target.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else local
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports never hide stdlib entropy
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


class FileContext:
    """Everything one rule needs to check one file."""

    def __init__(self, path: str, source: str) -> None:
        #: POSIX-style path as reported in findings.
        self.path = PurePosixPath(path).as_posix()
        self.tree = ast.parse(source, path)
        self._aliases: Optional[Dict[str, str]] = None

    @property
    def in_src(self) -> bool:
        """Whether the file is library code (under a ``src/repro`` root).

        PERF001 and RACE001 apply only to library code: tests may trace
        in loops and iterate sets freely.
        """
        return "src/repro/" in self.path or self.path.startswith("repro/")

    @property
    def aliases(self) -> Dict[str, str]:
        """Lazily built import-alias table (see :func:`import_aliases`)."""
        if self._aliases is None:
            self._aliases = import_aliases(self.tree)
        return self._aliases

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Resolve ``node`` to a dotted name through the alias table.

        ``Name`` and ``Attribute`` chains resolve (``t.monotonic`` with
        ``import time as t`` gives ``"time.monotonic"``); anything else —
        calls, subscripts — gives ``None``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` for ``rule`` located at ``node``."""
        return Finding(path=self.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule=rule, message=message)
