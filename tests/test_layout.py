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

# Exported names, and public methods and properties of reached classes, that no
# CLI command, criterion, figure or spanned name reaches yet, each with the
# ROADMAP item that gives it a route
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
    # public methods and properties of reached classes
    "band.SignalSpectrum.from_complex": "item 2, through spectrum_from_embedding",
    "band.SignalSpectrum.to_complex": "item 11, through log_likelihood (and item 2, through embedding_coords)",
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
from fisherband import (GeodesicPath, KnownMagnitudeModel, ModelChart, NoiseProfile, Template,
                        build_grid, path_length)
from fisherband.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(["accept", "--scale", "smoke"])
noise, rho0 = NoiseProfile.flat(2.0, 4), np.ones(4)
model = KnownMagnitudeModel(build_grid(0.25, 0.4, 4).freqs, rho0, phase_coeffs=[0.0, 0.0])
coords, velocities = np.random.default_rng(0).uniform(0.5, 2.0, (2, 9, 5))
lengths = [
    path_length(chart, GeodesicPath(np.linspace(0.0, 1.0, 9), coords[:, :width], velocities[:, :width]), n_quad=8)
    for chart, width in [(Template(noise, rho0), 5), (ModelChart(model, noise), 3)]
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


def _is_method(node) -> bool:
    """A class body's method or property that an attribute of its name reaches: any but a dunder method."""
    return isinstance(node, ast.FunctionDef) and not node.name.startswith("__")


def _reached_definitions(sources=None) -> tuple[set, set]:
    """The package's top-level definitions, as (module, name), and the methods
    of its classes, as (module, "Class.name"), that the definitions of cli,
    acceptance and figures and perfbench's spanned names reference, directly
    or through other definitions; and the public methods and properties of
    the reached classes.  A reached class reaches its body less its methods.
    A method of a reached class is reached by an attribute of its name in
    reached code, or by a string constant in reached code that calls
    ``getattr``: the walk does not type the receiver, so either reaches every
    method of that name.  ``sources`` maps module names to source text, in
    place of the package's files."""
    if sources is None:
        sources = {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    definitions, imported, methods = {}, {}, {}
    for module, text in sources.items():
        names = {}
        for node in ast.parse(text, filename=f"{module}.py").body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[module, node.name] = node
                for item in filter(_is_method, node.body if isinstance(node, ast.ClassDef) else []):
                    definitions[module, f"{node.name}.{item.name}"] = item
                    methods.setdefault(item.name, set()).add((module, node.name))
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

    def own_nodes(definition):
        # a class's nodes less its methods, which attributes reach
        if not isinstance(definition, ast.ClassDef):
            return list(ast.walk(definition))
        parts = [item for item in definition.body if not _is_method(item)]
        return [node for part in parts + definition.bases + definition.decorator_list for node in ast.walk(part)]

    spans = ast.parse(SPANS_FILE.read_text())
    spanned = next(
        ast.literal_eval(node.value)
        for node in spans.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SPANNED"
    )
    todo = [key for key in definitions if key[0] in ("cli", "acceptance", "figures") and "." not in key[1]]
    todo += [(module, name) for module, names in spanned.items() for name in names]
    assert [key for key in todo if key not in definitions] == []
    reached, attributes = set(), set()
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        skipped, nodes = _unreaching(definitions[key]), own_nodes(definitions[key])
        seen = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        if any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr" for node in nodes):
            seen |= {node.value for node in nodes if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        attributes |= seen
        for node in nodes:
            if isinstance(node, ast.Name) and id(node) not in skipped and (hit := resolve(key[0], node.id)):
                todo.append(hit)
        # the methods of reached classes whose names reached code reads
        todo += [(module, f"{cls}.{name}") for name in attributes for module, cls in methods.get(name, ()) if (module, cls) in reached]
    public = {
        (module, f"{cls}.{name}")
        for name, owners in methods.items()
        if not name.startswith("_")
        for module, cls in owners
        if (module, cls) in reached
    }
    return reached, public


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


def _unreached(sources=None) -> set:
    """Exported names, and public methods and properties of reached classes, that nothing reaches."""
    reached, methods = _reached_definitions(sources)
    unreached = {f"{module}.{name}" for module, name in methods - reached}
    for module in (acceptance, band, distances, figures, geodesics, metric, models):
        short = module.__name__.removeprefix("fisherband.")
        unreached |= {f"{short}.{name}" for name in module.__all__ if (short, name) not in reached}
    return unreached


def test_every_exported_name_has_a_route():
    unreached = _unreached()
    # a test-only name either gains a route or goes
    assert sorted(unreached - ALLOWLIST.keys()) == []
    # and the allowlist only shrinks: a name that gains a route, or goes, leaves it
    assert sorted(ALLOWLIST.keys() - unreached) == []


def test_a_method_only_tests_call_fails_the_walk():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    anchor = "    @property\n    def n_nodes(self) -> int:\n"
    assert sources["geodesics"].count(anchor) == 1
    planted = "    def planted(self):\n        return self.sigmas\n\n"
    sources["geodesics"] = sources["geodesics"].replace(anchor, planted + anchor)
    assert _unreached(sources) - _unreached() == {"geodesics.GeodesicPath.planted"}
    # a string constant read through getattr reaches it, as to_json_dict reaches K and c
    reader = '    names = ("alpha1", "alpha2", "k1",'
    assert sources["geodesics"].count(reader) == 1
    sources["geodesics"] = sources["geodesics"].replace(reader, reader.replace('"k1",', '"k1", "planted",'))
    assert _unreached(sources) == _unreached()
