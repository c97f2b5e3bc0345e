"""REPRO005 — frozen wire: layout edits require a new version byte.

The v1 frame layout is frozen (golden-blob test) and v2 is what every
deployed stream speaks; the chunk layer has its own version byte.  All of
that is encoded in a handful of module-level constants — magic numbers,
``struct`` formats, field tables, wire-ordered key tuples.  Editing any of
them *in place* silently breaks every previously-written stream while the
encoder/decoder pair (which share the constants) keeps round-tripping green.

This rule fingerprints the wire-layout constants of
``repro/io/framing.py`` and ``repro/stream/protocol.py`` (an order-sensitive
digest of their AST-extracted values) and compares against the pinned digest
in :data:`EXPECTED_FINGERPRINTS` (``PAYLOAD_LAYOUTS`` rows by struct name,
field order and tail).  A mismatch is a finding whose fix is procedural,
not mechanical: introduce a **new version byte** (grow
``SUPPORTED_VERSIONS`` / bump ``PROTOCOL_VERSION``) with decode support for
the old layout, then re-pin the fingerprint here — in the same reviewed
change.  ``python -m repro._lint --wire-fingerprint`` prints the current
digests for re-pinning.
"""

from __future__ import annotations

import ast
import hashlib
from collections.abc import Iterator

from repro._lint.engine import Finding, LintError, ModuleContext
from repro._lint.rules.base import Rule

#: Wire-layout constants per module.  Order matters: the digest is computed
#: over this order, so the tuple doubles as the layout's documentation.
PINNED_CONSTANTS: dict[str, tuple[str, ...]] = {
    "repro/io/framing.py": (
        "FRAME_MAGIC",
        "FRAME_VERSION",
        "SUPPORTED_VERSIONS",
        "FLAG_HAS_SEED",
        "FLAG_HAS_STATS",
        "_HEADER_FIELDS",
        "STAT_KEYS",
        "_CATEGORICAL_KEYS",
    ),
    "repro/stream/protocol.py": (
        "CHUNK_MAGIC",
        "PROTOCOL_VERSION",
        "_CHUNK_HEADER",
        "STREAM_KINDS",
        "_STREAM_START",
        "_FRAME_DATA",
        "_FRAME_COMPLETE",
        "_STREAM_END",
        "_FRAME_SEGMENT",
        "_FRAME_PARITY",
        "_PARITY_LENGTH",
        "_CONTROL_ACK",
        "_CONTROL_RATE",
        "_CONTROL_NACK",
        "_NACK_SEQUENCE",
        "_SESSION_RESUME",
        "ChunkType",
        "PAYLOAD_LAYOUTS",
    ),
}

#: sha256 digests of the canonical constant dump, pinned at the last
#: consciously-versioned wire layout (v1/v2 frames, chunk protocol v1 plus
#: the additive chunk types 5-8 — segments, parity, control feedback — and
#: the additive session-durability types 9-10 — NACK selective repeat and
#: reconnect-with-resume; new type bytes with new payload structs, every
#: existing layout untouched).  Re-pin ONLY together with a new version
#: byte or a purely additive extension like the above — never to quiet the
#: linter.
EXPECTED_FINGERPRINTS: dict[str, str] = {
    "repro/io/framing.py": (
        "c3b1418903982b0daefc30acd3a1011fb6d5c9fc655536117c9f20490dbd799b"
    ),
    "repro/stream/protocol.py": (
        "5f6fc961deaf1965379e0baa017f914e0ed290539534a79f04fb8f445cf422a5"
    ),
}


def _extract_value(node: ast.AST) -> object | None:
    """AST-extract a pinned constant: literals, or ``struct.Struct(fmt)``."""
    if isinstance(node, ast.Call):
        # struct.Struct("...") — the format string IS the layout.
        if node.args and isinstance(node.args[0], ast.Constant):
            return ("struct", node.args[0].value)
        return None
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def _expression(node: ast.AST) -> object:
    """A canonical, Python-version-independent form of a schema expression."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return ("name", node.id)
    if isinstance(node, ast.Attribute):
        return ("attribute", _expression(node.value), node.attr)
    if isinstance(node, ast.Call):
        return (
            "call",
            _expression(node.func),
            tuple(_expression(argument) for argument in node.args),
            tuple((keyword.arg, _expression(keyword.value)) for keyword in node.keywords),
        )
    return ("unsupported", type(node).__name__)


def _layout_rows(node: ast.AST) -> object | None:
    """Pin every ``PayloadLayout`` row of the schema dict: chunk type, struct
    name, field names in wire order, and the tail (kind and arguments)."""
    if not isinstance(node, ast.Dict):
        return None
    rows = []
    for key, row in zip(node.keys, node.values):
        if key is None or not isinstance(row, ast.Call) or len(row.args) < 3:
            return None
        tails = [keyword.value for keyword in row.keywords if keyword.arg == "tail"]
        tail = row.args[4] if len(row.args) > 4 else (tails[0] if tails else None)
        names = _expression(row.args[2])
        if not isinstance(names, str):
            return None
        tail_form = None if tail is None else _expression(tail)
        rows.append((_expression(key), _expression(row.args[1]), tuple(names.split()), tail_form))
    return tuple(rows)


def extract_constants(tree: ast.AST, names: tuple[str, ...]) -> dict[str, object]:
    """Pull the pinned wire constants out of a parsed module."""
    found: dict[str, object] = {}
    for node in ast.iter_child_nodes(tree):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        elif isinstance(node, ast.ClassDef) and node.name in names:
            # Enum-style class: pin the (member, value) pairs in order.
            members = []
            for statement in node.body:
                if isinstance(statement, ast.Assign) and isinstance(
                    statement.targets[0], ast.Name
                ):
                    extracted = _extract_value(statement.value)
                    if extracted is not None:
                        members.append((statement.targets[0].id, extracted))
            found[node.name] = tuple(members)
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id in names and value is not None:
                extract = _layout_rows if target.id == "PAYLOAD_LAYOUTS" else _extract_value
                extracted = extract(value)
                if extracted is not None:
                    found[target.id] = extracted
    return found


def compute_fingerprint(tree: ast.AST, module_rel: str) -> tuple[str, tuple[str, ...]]:
    """Digest a wire module's pinned constants.

    Returns ``(sha256_hex, missing_names)``; missing names are part of the
    contract violation (deleting a layout constant is also a layout edit).
    """
    names = PINNED_CONSTANTS[module_rel]
    constants = extract_constants(tree, names)
    missing = tuple(name for name in names if name not in constants)
    canonical = repr([(name, constants.get(name)) for name in names])
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return digest, missing


def current_fingerprints(sources: dict[str, str]) -> dict[str, str]:
    """Compute digests for ``{module_rel: source}`` (the --wire-fingerprint CLI)."""
    digests = {}
    for module_rel, source in sources.items():
        try:
            tree = ast.parse(source)
        except SyntaxError as error:  # pragma: no cover - defensive
            raise LintError(f"{module_rel}: cannot parse: {error}") from error
        digests[module_rel], _ = compute_fingerprint(tree, module_rel)
    return digests


class FrozenWireRule(Rule):
    rule_id = "REPRO005"
    contract = "frozen wire: layout constant edits require a new version byte"

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        module_rel = context.module_rel
        if module_rel not in PINNED_CONSTANTS:
            return
        digest, missing = compute_fingerprint(context.tree, module_rel)
        if missing:
            yield Finding(
                rule_id=self.rule_id,
                path=context.path,
                line=1,
                column=0,
                message=(
                    f"pinned wire-layout constants missing: {', '.join(missing)} "
                    "(deleting or renaming a layout constant is a wire change)"
                ),
                hint=(
                    "restore the constant, or version the wire: add a new "
                    "version byte with decode support for the old layout and "
                    "re-pin EXPECTED_FINGERPRINTS in _lint/rules/frozen_wire.py"
                ),
            )
            return
        if digest != EXPECTED_FINGERPRINTS[module_rel]:
            yield Finding(
                rule_id=self.rule_id,
                path=context.path,
                line=1,
                column=0,
                message=(
                    "wire-layout constants changed without a re-pinned "
                    f"fingerprint (got {digest[:12]}…, "
                    f"pinned {EXPECTED_FINGERPRINTS[module_rel][:12]}…)"
                ),
                hint=(
                    "a layout edit needs a NEW version byte (grow "
                    "SUPPORTED_VERSIONS / bump PROTOCOL_VERSION) keeping the "
                    "old decoder; then run `python -m repro._lint "
                    "--wire-fingerprint` and re-pin EXPECTED_FINGERPRINTS in "
                    "the same reviewed change"
                ),
            )


RULE = FrozenWireRule()
