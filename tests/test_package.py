"""The package runs on the standard library alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopsim"


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside


def _modules_after(code):
    """Names in sys.modules after running ``code`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    ).stdout
    return set(out.split())


def test_importing_the_cli_loads_neither_logging_nor_statistics():
    loaded = _modules_after("import hopsim.cli") - _modules_after("")
    assert "hopsim.cli" in loaded
    assert not loaded & {"logging", "statistics"}
