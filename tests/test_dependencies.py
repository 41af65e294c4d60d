"""The package runs on numpy alone: no scipy at run time, and the imports in
``src/triple_lab`` match the runtime dependencies declared in pyproject.toml.
Every private module-level helper in ``src/triple_lab`` has a caller there."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import triple_lab

PACKAGE = Path(triple_lab.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# one interpreter imports the package, then runs ``python -m triple_lab --help``
# through runpy, then prints the scipy modules it holds
CHILD = """
import json, runpy, sys
import triple_lab
sys.argv = ["triple_lab", "--help"]
try:
    runpy.run_module("triple_lab", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (None, 0), exc.code
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


def test_import_and_help_load_no_scipy(child_env, tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", CHILD],
        cwd=tmp_path,
        env=child_env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    *help_text, modules = result.stdout.splitlines()
    assert any("usage: triple-lab" in line for line in help_text)
    assert json.loads(modules) == []


# one interpreter runs a graded product, a derivation space and every repro
# statement, then prints whether numpy.ma was imported: numpy 2.4 imports it
# on the first np.unique call, which adds its import time and 1.6 MB of peak
# RSS (numpy 2.4.6, x86-64)
GRADED_CHILD = """
import json, sys
import numpy as np
import triple_lab
from triple_lab.derivations import derivation_space
from triple_lab.repro import repro_all
from triple_lab.triple_core import product_batch
system = triple_lab.build_factor("I_C(2,2)")
graded = system.unfolding("triple")
rows = np.random.default_rng(0).standard_normal((3, 4, system.dim))
product_batch(graded, *rows)
derivation_space(system, "triple")
repro_all()
print(json.dumps([len(graded.groups[0][2]) > 1, "numpy.ma" in sys.modules]))
"""


def test_graded_kernel_and_derivation_space_leave_numpy_ma_unimported(child_env, tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", GRADED_CHILD],
        cwd=tmp_path,
        env=child_env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [True, False]


def _third_party_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "triple_lab"}


def test_imports_match_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with PYPROJECT.open("rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.\-]+", spec).group(0).lower() for spec in declared}
    imported = set().union(*map(_third_party_imports, sorted(PACKAGE.glob("*.py"))))
    assert imported == declared == {"numpy"}


def _unreferenced_private_definitions(package: Path) -> list:
    """Module-level ``_private`` functions and classes of ``package`` that no
    name, attribute or import anywhere in the package refers to."""
    definitions, referenced = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions += [
            f"{path.stem}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return [name for name in definitions if name.split(".")[1] not in referenced]


def test_no_unreferenced_private_definitions():
    assert _unreferenced_private_definitions(PACKAGE) == []


def test_unreferenced_private_check_finds_a_dead_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    pass\n\n\ndef _dead():\n    pass\n\n\nclass _Dead:\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import _used\n")
    assert _unreferenced_private_definitions(tmp_path) == ["a._dead", "a._Dead"]


def _four_index_einsums(path: Path) -> list:
    """``(line, subscripts)`` of each einsum call in ``path`` that names four or
    more indices on one operand, a hand-written contraction of the structure
    tensor; a subscript that is not a string literal counts as well."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "einsum":
            continue
        first = node.args[0] if node.args else None
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            found.append((node.lineno, None))
            continue
        operands = first.value.split("->")[0].split(",")
        if any(sum(ch.isalpha() for ch in operand) >= 4 for operand in operands):
            found.append((node.lineno, first.value))
    return found


@pytest.mark.parametrize("module", ["derivations", "structure"])
def test_slot_contractions_use_the_kernel(module):
    """Slot maps go through ``triple_core.in_slots`` and L/Q through their operators."""
    assert _four_index_einsums(PACKAGE / f"{module}.py") == []


def test_four_index_check_finds_a_hand_written_contraction(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import numpy as np\n"
        'res = np.einsum("lm,ijkm->ijkl", m, p, optimize=True)\n'
        'norms = np.einsum("...l,...l->...", res, res)\n'
        "a = einsum(spec, p, x, x)\n"
    )
    assert _four_index_einsums(path) == [(2, "lm,ijkm->ijkl"), (4, None)]


# numpy functions that pyproject.toml's floor (numpy 1.24) lacks: numpy 2.0
# added them with the array-API namespace
NUMPY_2_FUNCTIONS = {
    "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh",
    "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "concat",
    "cumulative_prod", "cumulative_sum", "isdtype", "matrix_norm",
    "matrix_transpose", "permute_dims", "pow", "unique_all", "unique_counts",
    "unique_inverse", "unique_values", "unstack", "vecdot", "vector_norm",
}  # fmt: skip


def _numpy_2_only_calls(path: Path) -> list:
    """``(line, name)`` of each use in ``path`` of ``np.f`` or ``np.linalg.f``
    for f in ``NUMPY_2_FUNCTIONS``, of the ``.mT`` attribute, and of a ``copy``
    keyword that is None or not a constant: numpy 1.x refuses ``copy=None``
    (``NoneType copy mode not allowed``)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute):
            base = ast.unparse(node.value)
            if node.attr == "mT" or (base in ("np", "np.linalg") and node.attr in NUMPY_2_FUNCTIONS):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.keyword) and node.arg == "copy":
            if not isinstance(node.value, ast.Constant):
                found.append((node.value.lineno, "copy=<expression>"))
            elif node.value.value is None:
                found.append((node.value.lineno, "copy=None"))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_source_runs_on_the_declared_numpy_floor(path):
    assert _numpy_2_only_calls(path) == []


def test_numpy_floor_check_finds_numpy_2_calls(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import numpy as np\n"
        "d = np.vecdot(a, b)\n"
        "t = np.array(t, copy=None)\n"
        "t = np.array(t, copy=None if fresh else True)\n"
        "t = np.array(t, copy=False)\n"
        "n = np.linalg.norm(a.mT, axis=1)\n"
        "b = a.astype(float)\n"
        "c = np.linalg.vecdot(a, b)\n"
    )
    assert _numpy_2_only_calls(path) == [
        (2, "vecdot"), (3, "copy=None"), (4, "copy=<expression>"), (6, "mT"), (8, "vecdot"),
    ]  # fmt: skip


def _writeable_branches(path: Path) -> list:
    """Lines of ``path`` whose condition reads ``flags.writeable``: an ``if``,
    ``elif``, ``while``, conditional expression or comprehension filter.  A
    path chosen by that flag skips whatever the other path checks."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.If, ast.IfExp, ast.While)):
            conditions = [node.test]
        elif isinstance(node, ast.comprehension):
            conditions = node.ifs
        else:
            continue
        found += [
            sub.lineno
            for condition in conditions
            for sub in ast.walk(condition)
            if isinstance(sub, ast.Attribute)
            and sub.attr == "writeable"
            and isinstance(sub.value, ast.Attribute)
            and sub.value.attr == "flags"
        ]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_branch_on_writeable_flags(path):
    assert _writeable_branches(path) == []


def test_writeable_branch_check_finds_a_flag_selected_path(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "a.flags.writeable = False\n"
        "e = check(t) if t.values.flags.writeable else t\n"
        "if ok and not t.flags.writeable:\n"
        "    pass\n"
        "kept = [v for v in vs if v.flags.writeable]\n"
        "frozen = not a.flags.writeable\n"
    )
    assert _writeable_branches(path) == [2, 3, 5]


# a statement runner takes its systems from ``repro._RunContext.system``, which
# builds each once per run, and hands them to the private forms ``_surrogate``
# (the context) and ``_counterexample`` (its I_C(2,1)); only the context and
# the public ``repro_example_counterexample`` build one, and the public
# ``repro_theorem_surrogate`` builds through a context of its own
SYSTEM_BUILDERS = {"build_factor", "direct_sum"}
SYSTEM_OWNERS = {"_RunContext", "repro_example_counterexample"}


def _system_builds_outside_owners(path: Path) -> list:
    """``(definition, line)`` of each name or attribute ``build_factor`` or
    ``direct_sum`` in a module-level statement of ``path`` other than the
    definitions in ``SYSTEM_OWNERS``: a call, or the builder handed on."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if getattr(node, "name", None) in SYSTEM_OWNERS:
            continue
        found += [
            (getattr(node, "name", None), sub.lineno)
            for sub in ast.walk(node)
            if (sub.attr if isinstance(sub, ast.Attribute) else getattr(sub, "id", None))
            in SYSTEM_BUILDERS
        ]
    return sorted(found, key=lambda hit: hit[1])


def test_statement_runners_take_their_systems_from_the_run_context():
    assert _system_builds_outside_owners(PACKAGE / "repro.py") == []


def test_system_build_check_finds_a_runner_that_builds(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "class _RunContext:\n"
        "    def system(self, label):\n"
        "        return factors.build_factor(label)\n"
        "\n"
        "def repro_example_counterexample(seed):\n"
        "    return _counterexample(factors.build_factor('I_C(2,1)'), seed)\n"
        "\n"
        "def _stmt_a(ctx, seed):\n"
        "    return ctx.system('direct_sum')\n"
        "\n"
        "def _stmt_b(ctx, seed):\n"
        "    def run(specs):\n"
        "        return direct_sum([build_factor(s) for s in specs])\n"
        "    return run\n"
        "\n"
        "SYSTEM = factors.build_factor('I_R(2,2)')\n"
    )
    assert _system_builds_outside_owners(path) == [("_stmt_b", 13), ("_stmt_b", 13), (None, 16)]


# the functions that may read a dense n^4 view (``.tensor``, ``product_tensor(``
# or ``.dense(``): the two views themselves, the one-character unfolding, the
# exhaustive Jordan check (n <= 8) and the callers of ``in_slots``; L, Q and
# the inner-span generators read the nonzero list
DENSE_READERS = {
    "triple_core.TripleSystem.tensor",
    "triple_core.TripleSystem.product_tensor",
    "triple_core.graded_unfolding",
    "triple_core.check_jordan_identity",
    "triple_core.check_complex_structure",
    "structure.check_peirce_arithmetic",
    "derivations.leibniz_residual",
    "derivations.leibniz_residuals",
    "derivations.exp_flow_reports",
}


def _dense_reads(path: Path) -> list:
    """``(definition, line, read)`` of each ``.tensor`` attribute and each call
    of ``product_tensor`` or ``.dense`` in ``path``, the definition being the
    dotted name of the function or class around it, under the module's name."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Attribute) and child.attr == "tensor":
                found.append((scope, child.lineno, ".tensor"))
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "product_tensor" or (name == "dense" and isinstance(func, ast.Attribute)):
                    found.append((scope, child.lineno, f"{name}("))
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_only_the_slot_kernels_read_the_dense_view():
    reads = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _dense_reads(path)]
    assert [hit for hit in reads if hit[0] not in DENSE_READERS] == []


def test_dense_read_check_finds_a_planted_reader(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "class System:\n"
        "    @property\n"
        "    def tensor(self):\n"
        "        return self._entries.dense()\n"
        "\n"
        "def L_maps(system, a, b):\n"
        "    return np.einsum('ijkl,i,j->lk', system.tensor, a, b)\n"
        "\n"
        "def runner(system):\n"
        "    def run():\n"
        "        return system.product_tensor('triple')\n"
        "    return run, dense(system)\n"
    )
    assert _dense_reads(path) == [
        ("m.System.tensor", 4, "dense("),
        ("m.L_maps", 7, ".tensor"),
        ("m.runner.run", 11, "product_tensor("),
    ]
