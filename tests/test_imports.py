"""Import hygiene of the package modules.

Every name a module imports is used in it or re-exported through its
`__all__`, and importing the package loads neither numpy nor scipy: only
the bundled solver command, `curesched.lpsolve`, needs them.  An internal
solve loads no LP layer either: only solver children need `milp`.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import curesched

MODULES = sorted(p for p in Path(curesched.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read, nor listed in
    `__all__`."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported |= {elt.value for elt in node.value.elts}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read | exported]


def test_unused_imports_finds_what_it_should():
    source = ("import os\nimport os.path\nfrom a import b, c as d, e\n"
              "__all__ = ['e']\nos.getcwd()\n")
    assert unused_imports(source) == ["b", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_import_loads_no_numpy():
    code = ("import sys, curesched; "
            "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _fresh(code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True).stdout.strip()


def test_solver_command_loads_only_what_it_needs():
    """The bundled solver command starts as a child per model, so its import
    pulls in no other package module."""
    code = ("import sys, curesched.lpsolve; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'curesched'))")
    assert _fresh(code) == str(["curesched", "curesched.errors",
                                "curesched.lpformat", "curesched.lpsolve"])


def test_internal_solve_loads_no_lp_layer():
    """An internal solve runs the oracle alone: neither the model
    (`milp`) nor the LP text layer (`lpformat`) loads."""
    code = ("import sys, curesched.gen, curesched.hop; "
            "inst = curesched.gen.generate_instance("
            "curesched.gen.SCENARIOS['small'], 11); "
            "report, _ = curesched.hop.run_hop(inst); "
            "print(report.status, report.makespan, report.nodes > 0); "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'curesched'))")
    assert _fresh(code).splitlines() == ["optimal 6 True", str([
        "curesched", "curesched.bounds", "curesched.domain",
        "curesched.errors", "curesched.exact", "curesched.gen",
        "curesched.heuristic", "curesched.hop", "curesched.horizon"])]


def test_cli_import_loads_no_lp_layer():
    code = ("import sys, curesched.bench; "
            "print(sorted({'curesched.milp', 'curesched.lpformat'} "
            "& set(sys.modules)))")
    assert _fresh(code) == "[]"


def test_adapter_climb_loads_the_model():
    """A solver child needs the model: a baseline solve whose oracle
    slices settle nothing loads `milp` for its first child."""
    code = ("import sys, curesched.gen, curesched.hop; "
            "from curesched import HopConfig, SOLVER_ADAPTER, "
            "SolveReport, SolverAdapter; "
            "curesched.hop.solve_exact = lambda inst, thb, parts_mode, "
            "floor, time_limit_seconds: "
            "SolveReport('exact', 'limit', None, None, time_limit_seconds); "
            "inst = curesched.gen.generate_instance("
            "curesched.gen.SCENARIOS['small'], 1); "
            "before = 'curesched.milp' in sys.modules; "
            "adapter = SolverAdapter((sys.executable, '-m', "
            "'curesched.lpsolve')); "
            "report, _ = curesched.hop.run_baseline_milp(inst, HopConfig("
            "solver=SOLVER_ADAPTER, adapter=adapter)); "
            "print(before, report.status, report.makespan, "
            "'curesched.milp' in sys.modules)")
    assert _fresh(code) == "False optimal 2 True"


def test_star_import_binds_every_public_name():
    code = ("import curesched; names = {}; "
            "exec('from curesched import *', names); "
            "print(sorted(set(curesched.__all__) - set(names)))")
    assert _fresh(code) == "[]"
    assert len(set(curesched.__all__)) == len(curesched.__all__)


def test_submodules_resolve_as_package_attributes():
    code = ("import curesched; "
            "print(curesched.hop.run_hop is curesched.run_hop, "
            "hasattr(curesched, 'no_such_name'))")
    assert _fresh(code) == "True False"


def test_module_all_lists_match_the_package_table():
    """Every submodule that declares `__all__` declares exactly the names
    the package root re-exports from it."""
    for path in MODULES:
        module = importlib.import_module(f"curesched.{path.stem}")
        if hasattr(module, "__all__"):
            assert sorted(module.__all__) == sorted(
                curesched._EXPORTS.get(path.stem, ())), path.stem
