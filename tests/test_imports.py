"""What ``import catlattice`` loads.

Every library call and CLI run pays for the modules the package imports,
so the package adds no standard-library module to a bare interpreter's.
Conventions are fixed in the code, not held in module-level switches.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import catlattice

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse")


def _modules(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code + "import sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return set(out.split())


def test_import_adds_only_the_package():
    bare = _modules("")
    loaded = _modules("import catlattice; ")
    added = loaded - bare
    assert "catlattice" in added
    others = {m for m in added if m.split(".")[0] not in ("catlattice", "__future__")}
    assert others == set()
    for name in HEAVY:
        assert name not in loaded, name


def test_no_module_binds_a_bool():
    names = ["catlattice"] + [
        f"catlattice.{m.name}" for m in pkgutil.iter_modules(catlattice.__path__)
    ]
    for name in names:
        module = importlib.import_module(name)
        flags = [k for k, v in vars(module).items() if type(v) is bool]
        assert flags == [], (name, flags)
