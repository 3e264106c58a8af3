"""No module of the package imports a name it never uses, and no public
function or class of it goes unread. ``__init__`` is exempt: its imports are
the public API it re-exports. Stdlib ``ast`` checks, since the project
installs no linter."""
import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mixsel"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement anywhere in ``source`` and never
    read as a name (attribute access ``np.x`` reads ``np``)."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_checker_finds_unused_names():
    src = "import os\nimport a.b\nfrom x import y, z as w\nprint(y, a)\n"
    assert unused_imports(src) == ["os", "w"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def read_names(source: str) -> set:
    """Names ``source`` reads: loaded names, attribute names, and string
    constants (``perfbench/tracing.py`` names its targets as strings)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_every_public_definition_has_a_reader():
    # readers: the package's modules, the benchmark, and the README's code
    # spans; a name only the tests read belongs in the tests
    sources = [SRC / m for m in MODULES] + sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*(read_names(p.read_text(encoding="utf-8")) for p in sources))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for span in re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.S):
        read.update(re.findall(r"[A-Za-z_]\w*", span))
    unread = [f"{m}:{node.name}" for m in MODULES
              for node in ast.parse((SRC / m).read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in read]
    assert unread == []


ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))


def test_cli_import_loads_no_scipy():
    # scipy.special alone was about half the cold start of every mixsel call
    code = ("import sys, mixsel.cli; "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


# runs the CLI in a fresh interpreter where any import of scipy fails
NO_SCIPY_CLI = ("import sys; sys.modules['scipy'] = None; "
                "from mixsel.cli import main; sys.exit(main(sys.argv[1:]))")


def test_cli_runs_with_scipy_blocked(tmp_path):
    from mixsel import ScenarioSpec, generate, write_csv

    ds, _, _ = generate(ScenarioSpec("mixed-indep", n=40, d=6, missing_rate=0.1, seed=1))
    write_csv(ds, str(tmp_path / "data.csv"))
    toy = ["--gmax", "2", "--starts", "2", "--seed", "3"]
    commands = [
        ["cluster", str(tmp_path / "data.csv"), "--criterion", "micl", *toy,
         "--out", str(tmp_path / "cluster")],
        ["simulate", "--family", "mixed", "--n", "40", "--d", "6", "--replicates", "1",
         "--criteria", "bic,icl-noselect,micl", *toy, "--out", str(tmp_path / "simulate")],
    ]
    for argv in commands:
        run = subprocess.run([sys.executable, "-c", NO_SCIPY_CLI, *argv], env=ENV,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
