"""Structural checks on the package source."""

import ast
import pathlib
import subprocess
import sys

import fisherband

PACKAGE_DIR = pathlib.Path(fisherband.__file__).parent


def test_no_module_imports_another_modules_private_names():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}:{node.lineno} imports {alias.name} from .{node.module or ''}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_import_does_not_load_scipy_interpolate():
    code = "import sys, fisherband; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=PACKAGE_DIR.parent
    )
    assert out.stdout.strip() == "False"
