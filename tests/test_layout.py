"""Structural checks on the package source."""

import ast
import inspect
import pathlib
import subprocess
import sys

import fisherband
from fisherband import distances, geodesics

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


PATHS_WITHOUT_SCIPY = """
import contextlib, io, sys
import numpy as np
from fisherband import (AlphaPhaseChart, EmbeddingChart, GeodesicPath, KnownMagnitudeModel, ModelChart,
                        NoiseProfile, Template, build_grid, path_length)
from fisherband.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(["accept", "--scale", "smoke"])
noise, rho0 = NoiseProfile.flat(2.0, 4), np.ones(4)
model = KnownMagnitudeModel(build_grid(0.25, 0.4, 4).freqs, rho0, phase_coeffs=[0.0, 0.0])
coords = np.random.default_rng(0).uniform(0.5, 2.0, (9, 8))
lengths = [
    path_length(chart, GeodesicPath(np.linspace(0.0, 1.0, 9), coords[:, :width]), n_quad=8)
    for chart, width in [(AlphaPhaseChart(Template(noise, rho0)), 5), (ModelChart(model, noise), 3), (EmbeddingChart(noise), 8)]
]
print(code, all(length > 0.0 for length in lengths), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_accept_and_path_length_load_no_scipy_module():
    # the acceptance suite runs every oracle, the spline quadrature among them
    out = subprocess.run(
        [sys.executable, "-c", PATHS_WITHOUT_SCIPY], capture_output=True, text=True, check=True, cwd=PACKAGE_DIR.parent
    )
    assert out.stdout.strip() == "0 True []"


def test_cli_reports_errors_only_in_main():
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def to_stderr(node):
        return [
            k for k in ast.walk(node) if isinstance(k, ast.keyword) and k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
        ]

    assert len(to_stderr(tree)) == len(to_stderr(functions["main"])) == 1
    # no command picks its own error exit
    returns_two = [
        name
        for name, func in functions.items()
        if name.startswith("_cmd_")
        for node in ast.walk(func)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and node.value.value == 2
    ]
    assert returns_two == []


def test_known_magnitude_routes_take_a_validated_template():
    # a band is validated once, as a Template; only report takes the raw (noise, rho0) pair
    raw_pair = [
        f"{module.__name__}.{name}"
        for module in (distances, geodesics)
        for name in module.__all__
        # every function and class but the warning, which takes a message
        if not (isinstance(getattr(module, name), type) and issubclass(getattr(module, name), Warning))
        and {"noise", "rho0"} <= set(inspect.signature(getattr(module, name)).parameters)
    ]
    assert raw_pair == ["fisherband.distances.report"]
