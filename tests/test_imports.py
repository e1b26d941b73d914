"""What ``import catlattice`` loads.

Every library call and CLI run pays for the modules the package imports,
so the package adds no standard-library module to a bare interpreter's.
"""

import os
import subprocess
import sys

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
