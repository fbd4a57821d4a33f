"""Import footprint: no module of the package imports scipy, ``minimax``
imports no numpy, ``import bmdlimits`` and ``import bmdlimits.cli`` load no
numpy, each subcommand loads only what its answer needs, and every exported
name still resolves.  The library's sources hold no ``assert``."""

import ast
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import bmdlimits
from bmdlimits import cli
from bmdlimits.space import PRESETS

ROOT = pathlib.Path(__file__).parent.parent

#: (numpy, scipy) loaded by each subcommand; only the simulator needs numpy.
LOADS = {
    "passive": (False, False),
    "parallel": (False, False),
    "oracle": (False, False),
    "minimax": (False, False),
    "cardinality": (False, False),
    "simulate": (True, False),
    "feasibility": (False, False),
    "feasibility --margin": (False, False),
    "repro": (False, False),
}


def readme_examples() -> list[list[str]]:
    """Argument lists of the ``bmdlimits ...`` lines in README's command-line
    block, continuation lines joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    joined = re.sub(r"\\\n\s*", "", block)
    return [shlex.split(line)[1:] for line in joined.splitlines() if line.startswith("bmdlimits ")]


EXAMPLES = readme_examples()


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=300,
        check=True,
    )


LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy', 'bmdlimits'))))"


def test_readme_has_fourteen_examples():
    assert len(EXAMPLES) == 14


def test_package_import_loads_only_errors():
    loaded = json.loads(run_python("import bmdlimits; " + LOADED).stdout)
    assert loaded == ["bmdlimits", "bmdlimits.errors"]


def test_cli_import_loads_neither_numpy_nor_scipy():
    loaded = json.loads(run_python("import bmdlimits.cli; " + LOADED).stdout)
    assert "bmdlimits.cli" in loaded
    assert not [m for m in loaded if not m.startswith("bmdlimits")]


def test_cli_import_loads_no_solver():
    loaded = json.loads(run_python("import bmdlimits.cli; " + LOADED).stdout)
    assert "bmdlimits.minimax" not in loaded


def test_passive_import_loads_no_scipy():
    """Nor numpy: the passive solver and its Poisson tail are standard library."""
    loaded = json.loads(run_python("import bmdlimits.passive; " + LOADED).stdout)
    assert "bmdlimits.passive" in loaded
    assert not [m for m in loaded if not m.startswith("bmdlimits")]


def importers(package: str, paths) -> list[tuple[str, str | None]]:
    """(file, enclosing scope) of every import of ``package`` in ``paths``,
    found by an ``ast`` walk at any depth."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == package for name in names):
                    found.append((path.name, getattr(scope, "name", None)))
    return found


def test_no_module_imports_scipy():
    assert importers("scipy", sorted((ROOT / "src" / "bmdlimits").glob("*.py"))) == []


def test_minimax_imports_no_numpy():
    assert importers("numpy", [ROOT / "src" / "bmdlimits" / "minimax.py"]) == []


def test_library_has_no_assert():
    """Checks in the library raise: ``python -O`` strips ``assert``."""
    found = [
        (path.name, node.lineno)
        for path in sorted((ROOT / "src" / "bmdlimits").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize("argv", EXAMPLES, ids=[" ".join(a) for a in EXAMPLES])
def test_subcommand_loads(argv, tmp_path):
    argv = list(argv)
    if "--space" in argv:
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"attributes": [{"name": "a", "cardinality": 3}]}))
        argv[argv.index("--space") + 1] = str(space)
    if "--workers" in argv:  # keep the test's process count small
        argv[argv.index("--workers") + 1] = "2"
    code = (
        "import contextlib, io, json, sys\n"
        "from bmdlimits.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = run(sys.argv[1:])\n"
        "print(json.dumps([code, 'numpy' in sys.modules, 'scipy' in sys.modules]))\n"
    )
    exit_code, numpy, scipy = json.loads(run_python(code, *argv).stdout)
    key = "feasibility --margin" if argv[0] == "feasibility" and "--margin" in argv else argv[0]
    assert exit_code == 0
    assert (numpy, scipy) == LOADS[key]


def test_every_export_resolves():
    for name in bmdlimits.__all__:
        assert getattr(bmdlimits, name) is not None
        assert name in dir(bmdlimits)


def test_submodules_resolve_as_attributes():
    assert bmdlimits.kernels.poisson_upper_quantile is bmdlimits.poisson_upper_quantile


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError):
        bmdlimits.no_such_name


def test_preset_choices_match_presets():
    assert cli.PRESET_NAMES == tuple(sorted(PRESETS))

