"""REPRO007 — unused module-level imports.

This checks pyflakes' F401 (``ruff check``'s unused-import rule) offline,
with the stdlib ``ast`` and ``tokenize`` only, so an unused import fails the
tier-1 suite instead of first failing CI's ruff job.  It does not replace
ruff: ruff stays the authority, and this rule is a narrower, more lenient
subset.

Flagged in every linted file (library, tests, examples, benchmarks): a name
bound by an ``import`` or ``from ... import`` statement at module scope
(including inside module-level ``if``/``try``/``with`` blocks) that the
module never reads.  A read anywhere counts, in any scope, in annotations
and in string annotations.  Not flagged:

* ``from __future__ import ...`` and ``from x import *``;
* a name listed in the module's ``__all__``;
* the explicit re-export idiom ``import x as x`` / ``from m import y as y``;
* any import in a package ``__init__.py``, whose namespace is its API.
"""

from __future__ import annotations

import ast
import tokenize
from collections.abc import Iterator
from pathlib import PurePosixPath

from repro._lint.engine import Finding, ModuleContext
from repro._lint.rules.base import Rule

_HINT = (
    "delete the import; if it is a deliberate re-export, list it in "
    "__all__ or write it as `import x as x`"
)


def _module_imports(
    body: list[ast.stmt],
) -> Iterator[tuple[ast.Import | ast.ImportFrom, int, str]]:
    """``(statement, alias index, bound name)`` for each import at module scope."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for index, alias in enumerate(node.names):
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                yield node, index, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            blocks = [node.body, getattr(node, "orelse", []), getattr(node, "finalbody", [])]
            blocks += [handler.body for handler in getattr(node, "handlers", [])]
            for block in blocks:
                yield from _module_imports(block)


def _alias_positions(
    lines: list[str], statement: ast.Import | ast.ImportFrom
) -> list[tuple[int, int]]:
    """``(line, column)`` where each name of an import statement starts.

    ``ast.alias`` has no position before Python 3.10, so every version reads
    the statement's tokens instead: a name starts at the first token after
    the ``import`` keyword, a ``(`` or a ``,``.
    """
    start = (statement.lineno, statement.col_offset)
    end = (statement.end_lineno, statement.end_col_offset)
    readline = iter(lines[statement.lineno - 1 :]).__next__
    positions: list[tuple[int, int]] = []
    seen_import = expect_name = False
    for token in tokenize.generate_tokens(readline):
        position = (token.start[0] + statement.lineno - 1, token.start[1])
        if position < start or token.type in (tokenize.NL, tokenize.COMMENT):
            continue
        if position >= end:
            break
        if not seen_import:
            seen_import = expect_name = token.string == "import"
            continue
        if expect_name and (token.type == tokenize.NAME or token.string == "*"):
            positions.append(position)
        expect_name = token.string in ("(", ",")
    return positions


def _strings(node: ast.AST) -> Iterator[str]:
    """Every string constant inside ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the strings its ``__all__`` lists."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is None:
                continue
            for text in _strings(annotation):
                try:
                    parsed = ast.parse(text, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr)) and any(
            isinstance(child, ast.Name) and child.id == "__all__" for child in ast.walk(node)
        ):
            names.update(_strings(node))
    return names


class UnusedImportRule(Rule):
    rule_id = "REPRO007"
    contract = "no unused module-level imports (ruff's F401, checked offline)"

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        if PurePosixPath(context.path).name == "__init__.py":
            return
        read = _read_names(context.tree)
        lines = context.source.splitlines(keepends=True)
        for statement, index, bound in _module_imports(context.tree.body):
            if bound in read:
                continue
            alias = statement.names[index]
            line, column = _alias_positions(lines, statement)[index]
            yield Finding(
                rule_id=self.rule_id,
                path=context.path,
                line=line,
                column=column,
                message=f"`{alias.asname or alias.name}` is imported but never used",
                hint=_HINT,
            )


RULE = UnusedImportRule()
