"""The public API surface: every exported name exists and imports.

Protects downstream users: ``__all__`` across the packages is a
contract, and this test fails the moment an export goes stale.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = [
    "repro",
    "repro.bdd",
    "repro.logic",
    "repro.timed",
    "repro.delay",
    "repro.mct",
    "repro.fsm",
    "repro.sim",
    "repro.benchgen",
    "repro.report",
    "repro.synthesis",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_have_docstrings(package):
    module = importlib.import_module(package)
    assert module.__doc__ and module.__doc__.strip()
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj) or isinstance(obj, type):
            assert obj.__doc__ and obj.__doc__.strip(), (
                f"{package}.{name} lacks a docstring"
            )


def test_headline_api_from_top_level():
    import repro

    for name in (
        "minimum_cycle_time", "floating_delay", "transition_delay",
        "validity_report", "parse_bench", "optimize_skew",
        "level_sensitive_mct", "find_witness",
    ):
        assert name in repro.__all__


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_imports_only_the_standard_library():
    """Importing every module of the package, in a fresh interpreter,
    loads no top-level package but ``repro`` and the standard library.

    Compared against a snapshot taken before the first import: site
    hooks may load third-party modules of their own at start-up.
    """
    script = (
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(info.name)\n"
        "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(loaded - {'repro'} - sys.stdlib_module_names))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"
