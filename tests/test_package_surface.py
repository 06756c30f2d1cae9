"""Every name the package defines has a caller in the package, or a stated
role outside it; and ``gapflow.__all__`` is exactly the API README lists.

A reference that only tests call belongs in tests/reference.py, not in
src/gapflow: a reference inside the package is one edit away from sharing
code with what it checks.
"""

import ast
import pathlib
import re

import gapflow

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gapflow"

# Why a name with no caller in src/gapflow stays.
CLI = "a CLI entry point (pyproject.toml's [project.scripts])"
API = "library API that README lists under Public names"
PERFBENCH = "perfbench reads it"

ALLOWED = {
    "cli.arrow_check_main": (CLI,),
    "dynamics.EffectiveGenerator.dense": (PERFBENCH,),
    "dynamics.EffectiveGenerator.matrix": (PERFBENCH,),
    "dynamics.component_currents": (API, PERFBENCH),
    "dynamics.step": (API, PERFBENCH),
    "dynamics.step_grid": (PERFBENCH,),
    "model.load_scenario_file": (API, PERFBENCH),
    "model.serialize_scenario": (API, PERFBENCH),
    "substreams.trajectory_rng": (API, PERFBENCH),
}


def definitions():
    """(module, qualified name, name, is a method) of every function and
    class at module level and of every method, dunders left out."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            nested = node.body if isinstance(node, ast.ClassDef) else []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((path.stem, node.name, node.name, False))
            out += [(path.stem, f"{node.name}.{n.name}", n.name, True) for n in nested
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and not (n.name.startswith("__") and n.name.endswith("__"))]
    return out


def callers():
    """Names the package reads: (module, name) for each loaded name, resolved
    through the reading module's relative imports or to its own module, and
    every attribute name read. __init__.py only re-exports, so it reads
    nothing."""
    names, attributes = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name: (node.module, alias.name)
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and node.level == 1 for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(imported.get(node.id, (path.stem, node.id)))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def uncalled():
    names, attributes = callers()
    return {f"{module}.{qual}" for module, qual, name, method in definitions()
            if (name not in attributes if method else (module, name) not in names)}


def readme_public_names() -> list[str]:
    """The backticked names of the bullets under README's Public names."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Public names", 1)[1].split("\n#", 1)[0]
    bullets = section[section.index("\n- "):]
    return re.findall(r"`(\w+)`", bullets)


def test_every_package_name_has_a_caller_or_a_stated_role():
    assert sorted(uncalled() - set(ALLOWED)) == []


def test_every_allowed_name_is_uncalled_and_its_role_holds():
    """The allowlist holds no name that gained a caller or lost its role."""
    assert sorted(set(ALLOWED) - uncalled()) == []
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8").split(
        "[project.scripts]", 1)[1].split("\n[", 1)[0]
    perfbench = "".join(p.read_text(encoding="utf-8")
                        for p in sorted((ROOT / "perfbench").glob("*.py")))
    public = set(readme_public_names())
    for qualified, reasons in ALLOWED.items():
        module, name = qualified.split(".")[0], qualified.rsplit(".", 1)[1]
        for reason in reasons:
            if reason is CLI:
                assert f"gapflow.{module}:{name}" in scripts, qualified
            elif reason is API:
                assert name in public and name in gapflow.__all__, qualified
            else:
                assert re.search(rf"\b{name}\b", perfbench), qualified


def test_all_names_exactly_the_documented_api():
    documented = readme_public_names()
    assert len(documented) == len(set(documented))
    assert sorted(gapflow.__all__) == sorted(documented)
    assert all(hasattr(gapflow, name) for name in gapflow.__all__)
