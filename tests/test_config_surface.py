"""One configuration surface: the environment only seeds ``RuntimeConfig``.

Two modules of ``repro.runtime`` read the environment: the package
``__init__`` seeds :class:`repro.runtime.RuntimeConfig` once, at import,
and ``resilience`` reads ``REPRO_STRICT`` per call.  Every other module
takes its settings from arguments or from that config.  The walk below
reads the source of every module under ``src/repro`` (docstrings
included), so a new environment read or a new ``REPRO_*`` name anywhere
fails here.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The modules allowed to read the environment, relative to ``src``.
ENV_READERS = {"repro/runtime/__init__.py", "repro/runtime/resilience.py"}

#: The ``REPRO_*`` variables the library reads.
KEPT_VARIABLES = {"REPRO_DISK_CACHE", "REPRO_DISK_CACHE_BYTES",
                  "REPRO_TRANSIENT_ENGINE", "REPRO_TRANSIENT_RTOL",
                  "REPRO_TRANSIENT_ATOL", "REPRO_STRICT"}

_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}
_VARIABLE = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9]")


def _modules():
    modules = sorted((SRC / "repro").rglob("*.py"))
    assert len(modules) > 50
    for path in modules:
        yield path.relative_to(SRC).as_posix(), ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path))


def _environment_reads(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in _ENV_NAMES:
                    yield node.lineno, f"from os import {alias.name}"


def test_only_the_runtime_package_reads_the_environment():
    reads = {name: list(_environment_reads(tree)) for name, tree in _modules()}
    offenders = [f"{name}:{line}: {what}" for name, found in reads.items()
                 if name not in ENV_READERS for line, what in found]
    assert offenders == []
    assert all(reads[name] for name in ENV_READERS)


def test_no_module_names_a_retired_variable():
    found = [(name, node.lineno, variable) for name, tree in _modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             for variable in _VARIABLE.findall(node.value)]
    offenders = [f"{name}:{line}: {variable}"
                 for name, line, variable in found
                 if variable not in KEPT_VARIABLES]
    assert offenders == []
    assert {variable for _, _, variable in found} == KEPT_VARIABLES
