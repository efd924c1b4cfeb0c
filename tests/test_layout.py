"""Structural checks on the package source."""

import ast
import inspect
import pathlib
import subprocess
import sys

import pytest

import fisherband
from fisherband import acceptance, band, distances, figures, geodesics, metric, models

PACKAGE_DIR = pathlib.Path(fisherband.__file__).parent
SPANS_FILE = PACKAGE_DIR.parent.parent / "perfbench" / "spans.py"
README = PACKAGE_DIR.parent.parent / "README.md"

# Exported names that no CLI command, criterion, figure or spanned name reaches
# yet, each with the ROADMAP item that gives it a route
ALLOWLIST = {
    "band.Observation": "item 11, the likelihood oracle",
    "band.log_likelihood": "item 11, the likelihood oracle",
    "band.sample_observation": "item 11, the likelihood oracle",
    "band.save_band_csv": "item 8, case 1 through the CLI on one band file",
    "band.load_band_csv": "item 8, case 1 through the CLI on one band file",
    "distances.small_phase_equivalent": "item 4, the asymptotics by their rate",
    "geodesics.ModelChart": "item 2, geodesics from boundary data alone",
    "geodesics.embedding_coords": "item 2, geodesics from boundary data alone",
    "geodesics.spectrum_from_embedding": "item 2, geodesics from boundary data alone",
    "geodesics.straight_line_geodesic": "item 2, geodesics from boundary data alone",
}


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


def test_scipy_is_a_test_dependency_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((PACKAGE_DIR.parent.parent / "pyproject.toml").read_text())["project"]
    assert [spec.split(">")[0] for spec in project["dependencies"]] == ["numpy"]
    assert any(spec.startswith("scipy") for spec in project["optional-dependencies"]["test"])
    imported = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "scipy" not in imported


PATHS_WITHOUT_SCIPY = """
import contextlib, io, sys
import numpy as np
from fisherband import (AlphaPhaseChart, GeodesicPath, KnownMagnitudeModel, ModelChart, NoiseProfile, Template,
                        build_grid, path_length)
from fisherband.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(["accept", "--scale", "smoke"])
noise, rho0 = NoiseProfile.flat(2.0, 4), np.ones(4)
model = KnownMagnitudeModel(build_grid(0.25, 0.4, 4).freqs, rho0, phase_coeffs=[0.0, 0.0])
coords, velocities = np.random.default_rng(0).uniform(0.5, 2.0, (2, 9, 5))
lengths = [
    path_length(chart, GeodesicPath(np.linspace(0.0, 1.0, 9), coords[:, :width], velocities[:, :width]), n_quad=8)
    for chart, width in [(AlphaPhaseChart(Template(noise, rho0)), 5), (ModelChart(model, noise), 3)]
]
print(code, all(length > 0.0 for length in lengths), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_accept_and_path_length_load_no_scipy_module():
    # the acceptance suite runs every oracle, the Hermite quadrature among them
    out = subprocess.run(
        [sys.executable, "-c", PATHS_WITHOUT_SCIPY], capture_output=True, text=True, check=True, cwd=PACKAGE_DIR.parent
    )
    assert out.stdout.strip() == "0 True []"


def test_readme_short_session_runs_as_written():
    # the README's one library example, in development mode with every warning an error
    text = README.read_text()
    session = text[text.index("A short session:") :].split("```python\n", 1)[1].split("```", 1)[0]
    assert "import fisherband as fb" in session
    subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", session], check=True, cwd=PACKAGE_DIR.parent)


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


def _reached_definitions() -> set:
    """The package's top-level definitions, as (module, name), that the
    definitions of cli, acceptance and figures and perfbench's spanned names
    reference, directly or through other definitions."""
    definitions, imported = {}, {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        module, names = path.stem, {}
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[module, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                definitions.update({(module, t.id): node for t in targets if isinstance(t, ast.Name)})
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                names.update({alias.asname or alias.name: (node.module, alias.name) for alias in node.names})
        imported[module] = names

    def resolve(module, name):
        while (module, name) not in definitions and name in imported.get(module, {}):
            module, name = imported[module][name]
        return (module, name) if (module, name) in definitions else None

    spans = ast.parse(SPANS_FILE.read_text())
    spanned = next(
        ast.literal_eval(node.value)
        for node in spans.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SPANNED"
    )
    todo = [key for key in definitions if key[0] in ("cli", "acceptance", "figures")]
    todo += [(module, name) for module, names in spanned.items() for name in names]
    assert [key for key in todo if key not in definitions] == []
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            skipped = _unreaching(definitions[key])
            for node in ast.walk(definitions[key]):
                if isinstance(node, ast.Name) and id(node) not in skipped and (hit := resolve(key[0], node.id)):
                    todo.append(hit)
    return reached


def _unreaching(definition) -> set:
    """The ids of the name nodes in ``definition`` that reach nothing: those in
    an annotation or in the class argument of an ``isinstance``/``issubclass``
    call, as neither builds or calls what it names."""
    skipped = []
    for node in ast.walk(definition):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            skipped.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skipped.append(node.returns)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass"):
            skipped += node.args[1:]
    return {id(name) for tree in skipped if tree is not None for name in ast.walk(tree) if isinstance(name, ast.Name)}


def test_every_exported_name_has_a_route():
    reached = _reached_definitions()
    unreached = set()
    for module in (acceptance, band, distances, figures, geodesics, metric, models):
        short = module.__name__.removeprefix("fisherband.")
        unreached |= {f"{short}.{name}" for name in module.__all__ if (short, name) not in reached}
    # a test-only name either gains a route or goes
    assert sorted(unreached - ALLOWLIST.keys()) == []
    # and the allowlist only shrinks: a name that gains a route, or goes, leaves it
    assert sorted(ALLOWLIST.keys() - unreached) == []
