"""The package exports only what the pipeline, its demos, the benchmark or the
README read, and the CLI has only options that they pass, so the public API
does not grow back helpers or knobs that only their own tests call."""
import argparse
import ast
import dataclasses
import re
import sys
import tomllib
from pathlib import Path

from sol3 import OdeSettings, cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sol3"

# Exported although no other reader names them:
KEPT = {
    # result and exception types that callers receive
    "Axis", "CurveClass", "Line", "NotSettledError", "ShootingResult", "TheoremReport",
    "CurvatureReport", "FundamentalForms", "BasePointMismatch",
    # acceptance criterion 8, the group and isometry algebra, and the types
    # its isometries are described by
    "group_mul", "inverse", "metric_eval", "TangentVector", "left_translate",
    "isometry_apply", "AXIS_SWAP_FLIP", "IsometryDescriptor", "IsometryFamily",
}

# CLI options that no README example, demo or benchmark workload passes:
KEPT_OPTIONS = {
    # OdeSettings fields, each of which must be an option (see
    # test_every_integrator_setting_is_a_cli_option)
    "--tol",
}


def _exports() -> dict[str, str]:
    """Each name imported in sol3/__init__.py, with the module it comes from."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _names_read(path: Path) -> set[str]:
    """Identifiers a Python file reads: names, attributes, imported names and
    identifier-shaped strings (as in setattr(owner, "attr", ...))."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def test_every_export_has_a_reader():
    readers = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        readers |= _names_read(path)
    unused = []
    for name, module in _exports().items():
        others = [p for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", module)]
        if name not in KEPT and name not in readers \
                and not any(name in _names_read(p) for p in others):
            unused.append(f"{module}.{name}")
    assert not unused, f"exported but read only by tests: {unused}"


def test_every_integrator_setting_is_a_cli_option():
    # A setting that no option reaches could only ever be set by tests.
    fields = {field.name for field in dataclasses.fields(OdeSettings)}
    assert fields == set(cli._SETTINGS_OPTIONS)


def _cli_options() -> set[str]:
    """The long options of every `sol3` subcommand, --help aside."""
    subs = next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    return {option for sub in subs.choices.values() for action in sub._actions
            for option in action.option_strings if option.startswith("--")} - {"--help"}


def test_every_cli_option_has_a_caller():
    # An option that nothing but the tests passes is a knob only tests turn.
    readme = (ROOT / "README.md").read_text()
    callers = [readme.split("## Command line", 1)[1].split("```")[1],
               (ROOT / "perfbench" / "workloads.py").read_text(),
               *(path.read_text() for path in (ROOT / "demos").glob("*.py"))]
    uncalled = sorted(option for option in _cli_options() - KEPT_OPTIONS
                      if not any(re.search(re.escape(option) + r"(?![\w-])", text)
                                 for text in callers))
    assert not uncalled, f"options that no example, demo or workload passes: {uncalled}"


def _imported_top_level_modules() -> set[str]:
    """Top-level names of every absolute import in the package's modules."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_every_third_party_import_is_a_declared_dependency():
    third_party = _imported_top_level_modules() - set(sys.stdlib_module_names) - {"__future__"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower().replace("-", "_")
                for dep in project["dependencies"]}
    assert third_party >= {"numpy", "orjson"}  # the walk sees the imports it must
    assert third_party <= declared


def test_only_main_maps_errors_to_exit_codes():
    # A handler refuses its input by raising; `cli.main` alone prints the
    # message and picks the exit code, so no handler touches stderr or
    # returns the usage exit code.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert {handler.name for handler in handlers} == \
        {handler.__name__ for handler in cli._HANDLERS.values()}
    offences = []
    for handler in handlers:
        for node in ast.walk(handler):
            if isinstance(node, ast.Attribute) and node.attr == "stderr":
                offences.append(f"{handler.name} line {node.lineno}: sys.stderr")
            elif isinstance(node, ast.Return) and node.value is not None and any(
                    isinstance(leaf, ast.Name) and leaf.id == "EXIT_USAGE"
                    or isinstance(leaf, ast.Constant) and leaf.value == cli.EXIT_USAGE
                    for leaf in ast.walk(node.value)):
                offences.append(f"{handler.name} line {node.lineno}: returns EXIT_USAGE")
    assert not offences, offences


def _imports_module(path: Path, name: str) -> bool:
    """Whether a package file imports the sibling module `name`, or from it."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == name \
                    or any(alias.name == name for alias in node.names):
                return True
        elif isinstance(node, ast.Import) \
                and any(alias.name.split(".")[-1] == name for alias in node.names):
            return True
    return False


def test_only_ode_imports_the_stepper():
    # How a step's interpolant is built and read is known to `_rk` and to
    # its one client, `ode`, alone.
    assert _imports_module(PACKAGE / "analysis.py", "ode")  # the scan sees imports
    assert [path.stem for path in sorted(PACKAGE.glob("*.py"))
            if _imports_module(path, "_rk")] == ["ode"]


def test_every_parameter_is_read():
    # A parameter that its function never reads is an input that changes
    # nothing; a name starting with "_" marks one kept on purpose.
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *(arg for arg in (args.vararg, args.kwarg) if arg is not None)]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {leaf.id for statement in body for leaf in ast.walk(statement)
                    if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load)}
            unread += [f"{path.name} line {node.lineno}: {arg.arg}" for arg in params
                       if not arg.arg.startswith("_") and arg.arg not in read]
    assert not unread, f"parameters never read: {unread}"
