"""The lint engine: file discovery and one pass of every rule per file.

Each file is parsed once into a :class:`~repro.lint.context.FileContext`
and handed to every selected rule.  Output is always sorted by ``(path,
line, col, rule, message)`` and every data source is deterministic, so two
runs over the same tree are byte-identical.
"""

from __future__ import annotations

from pathlib import Path, PurePosixPath
from typing import Iterable, List, Optional, Sequence

from repro.lint.context import FileContext
from repro.lint.finding import Finding
from repro.lint.registry import Rule, all_rules

#: Code for files the parser rejects (reported, not raised).
SYNTAX_CODE = "LINT002"

#: Path components skipped when *walking directories* (explicitly named
#: files are always linted).  ``fixtures`` holds the linter's own
#: deliberately-violating test inputs.
DEFAULT_EXCLUDED_PARTS = frozenset({"fixtures", "__pycache__", ".git"})


def iter_python_files(
        paths: Sequence[Path],
        excluded_parts: frozenset = DEFAULT_EXCLUDED_PARTS) -> List[Path]:
    """Expand ``paths`` into a sorted list of ``.py`` files.

    Directories are walked recursively, skipping any subtree whose name is
    in ``excluded_parts``; a path given explicitly is linted even if a walk
    would have skipped it — that is how the fixture tests point the CLI at
    a deliberately bad file.
    """
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                candidate for candidate in sorted(path.rglob("*.py"))
                if not excluded_parts.intersection(candidate.parts))
        else:
            files.append(path)
    return sorted(set(files))


def select_rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    """All registered rules, or just the given codes (``KeyError`` on typos)."""
    rules = all_rules()
    if select is None:
        return rules
    wanted = set(select)
    unknown = wanted - {rule.code for rule in rules}
    if unknown:
        raise KeyError(f"unknown rule code(s): {sorted(unknown)}")
    return [rule for rule in rules if rule.code in wanted]


def lint_source(source: str, path: str,
                rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Lint one in-memory module; ``path`` decides which rules apply."""
    path = PurePosixPath(path).as_posix()
    try:
        ctx = FileContext(path, source)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1, rule=SYNTAX_CODE,
                        message=f"syntax error: {exc.msg}")]
    return sorted(finding
                  for rule in (all_rules() if rules is None else rules)
                  for finding in rule.check(ctx))


def lint_paths(paths: Sequence[Path],
               rules: Optional[Sequence[Rule]] = None,
               excluded_parts: frozenset = DEFAULT_EXCLUDED_PARTS,
               ) -> List[Finding]:
    """Lint files/directories; returns every finding, sorted."""
    return sorted(
        finding
        for file_path in iter_python_files(paths, excluded_parts)
        for finding in lint_source(file_path.read_text(encoding="utf-8"),
                                   file_path.as_posix(), rules))
