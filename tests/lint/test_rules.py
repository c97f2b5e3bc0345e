"""Fixture tests: one minimal violating snippet per rule id.

Each fixture is linted as an in-memory module placed at a library path, and
the test asserts (a) the finding carries the right rule id and file:line,
and (b) the finding disappears when that one rule is disabled — proving the
finding comes from the rule under test and not a neighbour.
"""

from __future__ import annotations

import pytest

from repro._lint import RULES, lint_source
from repro._lint.engine import SUPPRESSION_RULE_ID


def _without(rule_id):
    return [rule for rule in RULES if rule.rule_id != rule_id]


def _findings(source, path, rule_id):
    """Lint with all rules, and again with ``rule_id`` disabled."""
    full = lint_source(source, path)
    reduced = lint_source(source, path, rules=_without(rule_id))
    return full, reduced


# ---------------------------------------------------------------- REPRO001
SHARED_PHI_OUTER = """\
import numpy as np

def build_phi(rows, cols):
    masks = np.bitwise_xor.outer(rows, cols)
    return masks
"""

SHARED_PHI_BROADCAST = """\
import numpy as np

def build_phi(row_signals, col_signals):
    return np.bitwise_xor(row_signals[:, :, None], col_signals[:, None, :])
"""

SHARED_PHI_EVOLVE = """\
def expand(automaton, n):
    return automaton.evolve_states(n, 1)
"""


class TestSharedPhi:
    def test_outer_xor_flagged_with_position(self):
        full, reduced = _findings(
            SHARED_PHI_OUTER, "src/repro/recon/rogue.py", "REPRO001"
        )
        assert [f.rule_id for f in full] == ["REPRO001"]
        assert full[0].path == "src/repro/recon/rogue.py"
        assert full[0].line == 4
        assert reduced == []

    def test_broadcast_xor_flagged(self):
        full, reduced = _findings(
            SHARED_PHI_BROADCAST, "src/repro/sensor/rogue.py", "REPRO001"
        )
        assert [f.rule_id for f in full] == ["REPRO001"]
        assert full[0].line == 4
        assert reduced == []

    def test_direct_state_expansion_flagged(self):
        full, reduced = _findings(
            SHARED_PHI_EVOLVE, "src/repro/sensor/rogue.py", "REPRO001"
        )
        assert [f.rule_id for f in full] == ["REPRO001"]
        assert full[0].line == 2
        assert reduced == []

    def test_allowed_in_the_shared_builder(self):
        assert lint_source(SHARED_PHI_OUTER, "src/repro/ca/selection.py") == []

    def test_allowed_in_tests(self):
        assert lint_source(SHARED_PHI_OUTER, "tests/ca/test_rogue.py") == []


# ---------------------------------------------------------------- REPRO002
DENSE_PHI = """\
def hot_path(operator, y):
    matrix = operator.phi
    return matrix.T @ y
"""


class TestDensePhi:
    def test_phi_materialisation_flagged(self):
        full, reduced = _findings(DENSE_PHI, "src/repro/recon/rogue.py", "REPRO002")
        assert [f.rule_id for f in full] == ["REPRO002"]
        assert full[0].line == 2
        assert reduced == []

    def test_allowed_in_operator_modules_and_tests(self):
        assert lint_source(DENSE_PHI, "src/repro/cs/operators.py") == []
        assert lint_source(DENSE_PHI, "src/repro/cs/structured.py") == []
        assert lint_source(DENSE_PHI, "tests/cs/test_rogue.py") == []

    def test_phi_store_not_flagged(self):
        source = "def init(self, phi):\n    self.phi = phi\n"
        findings = lint_source(source, "src/repro/recon/rogue.py")
        # Assignment is a Store context; only loads materialise.
        assert [f.rule_id for f in findings] == []


# ---------------------------------------------------------------- REPRO003
RNG_GLOBAL = """\
import numpy as np

def jitter(n):
    np.random.seed(0)
    return np.random.rand(n)
"""

RNG_UNSEEDED = """\
import numpy as np

def fresh():
    return np.random.default_rng()
"""

RNG_STDLIB = """\
import random

def pick(items):
    return random.choice(items)
"""


class TestRngDiscipline:
    def test_global_state_calls_flagged(self):
        full, reduced = _findings(RNG_GLOBAL, "src/repro/sensor/rogue.py", "REPRO003")
        assert [f.rule_id for f in full] == ["REPRO003", "REPRO003"]
        assert [f.line for f in full] == [4, 5]
        assert reduced == []

    def test_unseeded_default_rng_flagged(self):
        full, reduced = _findings(
            RNG_UNSEEDED, "src/repro/optics/rogue.py", "REPRO003"
        )
        assert [f.rule_id for f in full] == ["REPRO003"]
        assert full[0].line == 4
        assert reduced == []

    def test_stdlib_random_flagged(self):
        full, reduced = _findings(RNG_STDLIB, "src/repro/cs/rogue.py", "REPRO003")
        assert [f.rule_id for f in full] == ["REPRO003"]
        assert reduced == []

    def test_seeded_default_rng_allowed(self):
        source = (
            "import numpy as np\n\n"
            "def draw(seed):\n"
            "    return np.random.default_rng(seed).standard_normal(4)\n"
        )
        assert lint_source(source, "src/repro/cs/rogue.py") == []

    def test_rng_funnel_module_exempt(self):
        assert lint_source(RNG_UNSEEDED, "src/repro/utils/rng.py") == []

    def test_tests_exempt(self):
        assert lint_source(RNG_GLOBAL, "tests/sensor/test_rogue.py") == []


# ---------------------------------------------------------------- REPRO004
ASYNC_SLEEP = """\
import time

async def pump(transport):
    time.sleep(0.1)
    await transport.send(b"x")
"""

ASYNC_CAPTURE = """\
async def stream_one(self, imager, scene):
    frame = imager.capture_scene(scene)
    await self.transport.send(frame)
"""

ASYNC_EXECUTOR_OK = """\
import asyncio

async def stream_one(self, imager, scene):
    loop = asyncio.get_running_loop()
    frame = await loop.run_in_executor(None, lambda: imager.capture_scene(scene))
    await self.transport.send(frame)
"""


class TestAsyncHygiene:
    def test_sleep_in_async_flagged(self):
        full, reduced = _findings(
            ASYNC_SLEEP, "src/repro/stream/rogue.py", "REPRO004"
        )
        assert [f.rule_id for f in full] == ["REPRO004"]
        assert full[0].line == 4
        assert reduced == []

    def test_direct_capture_in_async_flagged(self):
        full, reduced = _findings(
            ASYNC_CAPTURE, "src/repro/stream/rogue.py", "REPRO004"
        )
        assert [f.rule_id for f in full] == ["REPRO004"]
        assert full[0].line == 2
        assert reduced == []

    def test_executor_dispatch_allowed(self):
        assert lint_source(ASYNC_EXECUTOR_OK, "src/repro/stream/rogue.py") == []

    def test_only_stream_modules_in_scope(self):
        # A capture helper elsewhere is not event-loop code.
        assert lint_source(ASYNC_SLEEP, "src/repro/sensor/rogue.py") == []


# ---------------------------------------------------------------- REPRO005
WIRE_EDIT = """\
FRAME_MAGIC = 0xC6
FRAME_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)
FLAG_HAS_SEED = 0x01
FLAG_HAS_STATS = 0x02
_HEADER_FIELDS = (("rows", 12),)
STAT_KEYS = ("n_lsb_errors",)
_CATEGORICAL_KEYS = (("fidelity", ("behavioural", "event")),)
"""

WIRE_DELETED = """\
FRAME_MAGIC = 0xC5
"""


class TestFrozenWire:
    def test_layout_edit_flagged(self):
        full, reduced = _findings(WIRE_EDIT, "src/repro/io/framing.py", "REPRO005")
        assert [f.rule_id for f in full] == ["REPRO005"]
        assert full[0].line == 1
        assert "version byte" in full[0].hint
        assert reduced == []

    def test_deleted_constant_flagged(self):
        full, reduced = _findings(
            WIRE_DELETED, "src/repro/io/framing.py", "REPRO005"
        )
        assert [f.rule_id for f in full] == ["REPRO005"]
        assert "missing" in full[0].message
        assert reduced == []

    @pytest.mark.parametrize(
        "before, after",
        [
            # Two fields of a row swap wire positions.
            ('"frame_index n_chunks"', '"n_chunks frame_index"'),
            # A checksummed tail loses its CRC.
            (
                'CrcTail("prefix_bytes", "sample_bytes", split="prefix_length", crc="checksum")',
                'RawTail("sample_bytes")',
            ),
        ],
        ids=["field-order", "tail-kind"],
    )
    def test_schema_row_edit_flagged(self, before, after):
        import pathlib

        source = pathlib.Path("src/repro/stream/protocol.py").read_text(encoding="utf-8")
        assert source.count(before) == 1
        full, reduced = _findings(
            source.replace(before, after), "src/repro/stream/protocol.py", "REPRO005"
        )
        assert [f.rule_id for f in full] == ["REPRO005"]
        assert "changed" in full[0].message
        assert reduced == []

    def test_real_modules_match_their_pins(self):
        import pathlib

        for rel in ("repro/io/framing.py", "repro/stream/protocol.py"):
            source = (pathlib.Path("src") / rel).read_text(encoding="utf-8")
            assert lint_source(source, f"src/{rel}") == [], (
                f"{rel} drifted from its pinned wire fingerprint"
            )


# ---------------------------------------------------------------- REPRO006
TIMING_MODULE = """\
import time

def stamp(events):
    started = time.monotonic()
    events.append(time.time())
    return time.perf_counter() - started
"""

TIMING_FROM_IMPORT = """\
from time import monotonic as tick

def stamp():
    return tick()
"""

TIMING_LOOP = """\
import asyncio

async def stamp(loop):
    direct = asyncio.get_running_loop().time()
    return direct - loop.time()
"""

TIMING_INJECTED_OK = """\
def stamp(clock):
    return clock.now()
"""


class TestTimingDiscipline:
    def test_time_module_reads_flagged(self):
        full, reduced = _findings(
            TIMING_MODULE, "src/repro/stream/rogue.py", "REPRO006"
        )
        assert [f.rule_id for f in full] == ["REPRO006"] * 3
        assert [f.line for f in full] == [4, 5, 6]
        assert reduced == []

    def test_from_import_alias_flagged(self):
        full, reduced = _findings(
            TIMING_FROM_IMPORT, "src/repro/sensor/rogue.py", "REPRO006"
        )
        assert [f.rule_id for f in full] == ["REPRO006"]
        assert "time.monotonic" in full[0].message
        assert reduced == []

    def test_event_loop_clock_flagged(self):
        full, reduced = _findings(TIMING_LOOP, "src/repro/stream/rogue.py", "REPRO006")
        assert [f.rule_id for f in full] == ["REPRO006", "REPRO006"]
        assert [f.line for f in full] == [4, 5]
        assert reduced == []

    def test_injected_clock_allowed(self):
        assert lint_source(TIMING_INJECTED_OK, "src/repro/stream/rogue.py") == []

    def test_sleep_is_not_a_clock_read(self):
        source = "import time\n\ndef nap():\n    time.sleep(0.1)\n"
        findings = lint_source(source, "src/repro/sensor/rogue.py")
        assert "REPRO006" not in {f.rule_id for f in findings}

    def test_telemetry_funnel_exempt(self):
        assert lint_source(TIMING_MODULE, "src/repro/telemetry/clock.py") == []
        assert lint_source(TIMING_MODULE, "src/repro/telemetry/rogue.py") == []

    def test_tests_exempt(self):
        assert lint_source(TIMING_MODULE, "tests/stream/test_rogue.py") == []


# ---------------------------------------------------------------- REPRO007
UNUSED_IMPORTS = """\
import os
import os.path
import numpy as np
from typing import Any, Protocol


def norm(x: Protocol):
    return np.linalg.norm(x)
"""

UNUSED_IMPORTS_USED_OK = """\
from __future__ import annotations

import collections.abc
from typing import TYPE_CHECKING
from os.path import *

if TYPE_CHECKING:
    from pathlib import Path

try:
    import json
except ImportError:
    json = None


def load(path: "Path") -> collections.abc.Mapping:
    return json.loads(path.read_text())
"""

UNUSED_IMPORTS_REEXPORTS_OK = """\
import math as math
from statistics import median as median
from fractions import Fraction
from decimal import Decimal
from string import Template

__all__ = ["Fraction"]
__all__ += ["Decimal"]
__all__.append("Template")
"""


class TestUnusedImports:
    def test_unused_module_imports_flagged(self):
        full, reduced = _findings(
            UNUSED_IMPORTS, "src/repro/cs/rogue.py", "REPRO007"
        )
        assert [f.rule_id for f in full] == ["REPRO007"] * 3
        assert [(f.line, f.column) for f in full] == [(1, 7), (2, 7), (4, 19)]
        # `import os.path` binds `os` too, which nothing reads.
        assert ["`os`" in full[0].message, "`os.path`" in full[1].message] == [True, True]
        assert "`Any`" in full[2].message
        assert reduced == []

    def test_positions_follow_the_names_across_lines(self):
        # `ast.alias` has no position before Python 3.10; the rule finds it
        # from the statement's tokens on every version.
        source = (
            "import os; import sys\n"
            "from typing import (\n"
            "    Any,\n"
            "    List as L,\n"
            ")\n"
        )
        findings = lint_source(source, "src/repro/cs/rogue.py")
        assert [(f.line, f.column) for f in findings] == [(1, 7), (1, 18), (3, 4), (4, 4)]

    def test_reads_annotations_and_guarded_imports_count(self):
        assert lint_source(UNUSED_IMPORTS_USED_OK, "src/repro/cs/rogue.py") == []

    def test_reexport_idioms_and_all_honoured(self):
        assert lint_source(UNUSED_IMPORTS_REEXPORTS_OK, "src/repro/cs/rogue.py") == []

    def test_package_init_is_a_reexport(self):
        assert lint_source(UNUSED_IMPORTS, "src/repro/cs/__init__.py") == []

    def test_function_scope_imports_out_of_scope(self):
        source = "def lazy():\n    import os\n    return 1\n"
        assert lint_source(source, "src/repro/cs/rogue.py") == []

    def test_tests_and_benchmarks_in_scope(self):
        for path in ("tests/cs/test_rogue.py", "benchmarks/test_bench_rogue.py"):
            findings = lint_source(UNUSED_IMPORTS, path)
            assert [f.rule_id for f in findings] == ["REPRO007"] * 3

    def test_justified_suppression_covers_the_alias_line(self):
        source = (
            "from typing import (\n"
            "    Any,  # repro-lint: allow=REPRO007 -- imported for its side effect\n"
            ")\n"
        )
        assert lint_source(source, "src/repro/cs/rogue.py") == []


# ------------------------------------------------------------- suppressions
class TestSuppressions:
    def test_justified_suppression_silences_the_finding(self):
        source = (
            "import numpy as np\n\n"
            "def jitter(n):\n"
            "    return np.random.rand(n)"
            "  # repro-lint: allow=REPRO003 -- demo of legacy behaviour\n"
        )
        assert lint_source(source, "src/repro/sensor/rogue.py") == []

    def test_unjustified_suppression_is_its_own_finding(self):
        source = (
            "import numpy as np\n\n"
            "def jitter(n):\n"
            "    return np.random.rand(n)  # repro-lint: allow=REPRO003\n"
        )
        findings = lint_source(source, "src/repro/sensor/rogue.py")
        assert SUPPRESSION_RULE_ID in {f.rule_id for f in findings}
        # The original finding is NOT silenced by a justification-less allow.
        assert "REPRO003" in {f.rule_id for f in findings}

    def test_suppression_only_covers_its_rule(self):
        source = (
            "import numpy as np\n\n"
            "def jitter(n):\n"
            "    return np.random.rand(n)"
            "  # repro-lint: allow=REPRO001 -- wrong rule id\n"
        )
        findings = lint_source(source, "src/repro/sensor/rogue.py")
        assert [f.rule_id for f in findings] == ["REPRO003"]


# ------------------------------------------------------------------- meta
def test_every_rule_id_has_a_fixture():
    """The seven contracts stay demonstrated: one fixture class per rule."""
    covered = {
        "REPRO001", "REPRO002", "REPRO003", "REPRO004", "REPRO005", "REPRO006",
        "REPRO007",
    }
    assert {rule.rule_id for rule in RULES} == covered


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.rule_id)
def test_rules_have_contract_docs(rule):
    assert rule.contract, f"{rule.rule_id} is missing its contract line"
