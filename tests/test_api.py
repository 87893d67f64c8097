"""The public surface: the package's export list, the README quick start
and the calls the benchmark in perfbench/ makes into the package."""

import ast
import importlib
import inspect
import os
import re
import runpy
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import mssmf

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DERIVATION = ROOT / "DERIVATION.md"
SOURCES = sorted((ROOT / "src" / "mssmf").glob("*.py"))
BENCH_SOURCES = sorted((ROOT / "perfbench").glob("*.py"))
TEST_SOURCES = sorted((ROOT / "tests").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in mssmf.__all__ if not hasattr(mssmf, name)]
    assert missing == []


def test_export_list_is_sorted_and_unique():
    assert mssmf.__all__ == sorted(set(mssmf.__all__))


def test_every_exported_name_is_named_by_a_caller():
    # a caller reads the README or the benchmark; a name neither of them
    # mentions is surface that callers reach through attributes alone
    text = README.read_text() + "".join(p.read_text() for p in BENCH_SOURCES)
    unnamed = [name for name in mssmf.__all__ if not re.search(rf"\b{name}\b", text)]
    assert unnamed == []


def test_every_exported_name_is_used_by_a_caller():
    # stricter: the quick start or a benchmark script imports the name from
    # mssmf or reads it as mssmf.<name>; a mention in prose does not count
    used = set()
    for tree in [ast.parse(_quick_start())] + [ast.parse(p.read_text()) for p in BENCH_SOURCES]:
        used |= _package_uses(tree)[0]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "mssmf":
                used |= {alias.name for alias in node.names}
    assert sorted(set(mssmf.__all__) - used) == []


def test_engine_building_blocks_stay_in_their_modules():
    # reading an engine name binds the engine's exports alone, not scls
    assert mssmf.fit is mssmf.solver.fit
    assert not hasattr(mssmf, "scls")
    assert callable(mssmf.initialization.scls)


def test_public_attributes_are_exactly_the_export_list():
    public = {
        name
        for name, obj in vars(mssmf).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == set(mssmf.__all__)


# run in a child interpreter: build a scene, take its spectrum, and run
# the CLI's synth, svd and render into the directory argv[1]; none of it may
# load scipy.  Reading an engine name then loads it whole, so that the first
# init_all or fit pays no import
_NUMPY_ONLY_CHILD = """
import sys
from pathlib import Path

import mssmf, mssmf.cli

out = Path(sys.argv[1])
truth, _ = mssmf.assemble_ground_truth(mssmf.builtin_bases(40), seed=1)
bundle = mssmf.gen_dataset(truth, 20, 25.0, seed=2)
mssmf.singular_spectrum(bundle.pixels.data)
for argv in (
    ["synth", "--bands", "40", "--pixels", "20", "--snr-db", "25",
     "--out", str(out / "scene")],
    ["svd", "--input", str(out / "scene" / "data.raw64"), "--out", str(out / "sv.csv")],
    ["render", "--abundances", str(out / "scene" / "abundances_true.raw64"),
     "--width", "5", "--height", "4", "--out", str(out / "maps")],
):
    assert mssmf.cli.main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert loaded == [], f"{len(loaded)} scipy modules: {loaded[:5]}"
assert set(mssmf.__all__) <= set(dir(mssmf))
from mssmf import init_all, fit
assert {"scipy.special", "scipy.optimize"} <= set(sys.modules)
"""


def test_scenes_scores_and_plots_never_load_scipy(tmp_path):
    src = str(Path(mssmf.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY_CHILD, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert child.returncode == 0, child.stderr


def _quick_start() -> str:
    """The README's one python block."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_quick_start_runs():
    exec(compile(_quick_start(), str(README), "exec"), {"__name__": "readme_quick_start"})


def _unused_imports(tree: ast.Module):
    """Names bound by the module-level imports of tree that the module
    neither reads nor lists in __all__."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _module_names(tree: ast.Module):
    """The names tree's module-level defs, classes and assignments bind."""
    names = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.add(top.name)
        elif isinstance(top, ast.Assign):
            names |= {t.id for t in top.targets if isinstance(t, ast.Name)}
    return names


def _public_members(cls: ast.ClassDef):
    """The public dataclass fields, properties and methods of a class body."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        elif isinstance(node, ast.FunctionDef):
            name = node.name
        else:
            continue
        if not name.startswith("_"):
            yield name


def _unread_public_api():
    """Exported names, and public members of the package's public classes
    (exported or not), that nothing outside tests/ reads, as "name" or "Class.member".

    A read is an import by name, a load of mssmf.<name>, an .attr load of a
    member, or a Name load of a name in the module that defines it.  It
    counts in the package's modules (the export list aside) outside the
    name's own definition or class body, in the benchmark's scripts and in
    the README quick start."""
    own = [ast.parse(p.read_text()) for p in SOURCES if p.name != "__init__.py"]
    others = [ast.parse(p.read_text()) for p in BENCH_SOURCES] + [ast.parse(_quick_start())]
    wanted = {(name,) for name in mssmf.__all__}
    classes = set()
    for tree in own:
        for top in tree.body:
            if isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                classes.add(top.name)
                wanted |= {(top.name, member) for member in _public_members(top)}
    read = set()
    for tree, scoped in [(t, True) for t in own] + [(t, False) for t in others]:
        defined = _module_names(tree) if scoped else set()
        for top in tree.body:
            owner = getattr(top, "name", None) if scoped else None
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    read |= {(alias.name,) for alias in node.names}
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in defined and node.id != owner:
                        read.add((node.id,))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    if isinstance(node.value, ast.Name) and node.value.id == "mssmf":
                        read.add((node.attr,))
                    read |= {(cls, node.attr) for cls in classes if cls != owner}
    return sorted(".".join(item) for item in wanted - read)


def test_every_public_name_has_a_reader():
    # the package, the benchmark or the quick start reads every exported
    # name and every public member of a public class; a name that only
    # tests read is surface to delete, not to keep
    assert _unread_public_api() == []


def _package_uses(tree: ast.Module):
    """The mssmf.<name> attributes tree reads, and its calls mssmf.<name>(...)."""
    names, calls = set(), []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "mssmf"
        ):
            names.add(node.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if isinstance(node.func.value, ast.Name) and node.func.value.id == "mssmf":
                calls.append(node)
    return names, calls


@pytest.mark.parametrize("path", BENCH_SOURCES, ids=lambda p: p.name)
def test_benchmark_calls_fit_the_package(path):
    # every name the benchmark reads resolves, and every call binds to the
    # callee's signature: its positional count and each keyword it passes
    names, calls = _package_uses(ast.parse(path.read_text()))
    assert sorted(name for name in names if not hasattr(mssmf, name)) == []
    for call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg is None for kw in call.keywords
        ):
            continue
        sig = inspect.signature(getattr(mssmf, call.func.attr))
        sig.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})


def test_benchmark_scan_sees_the_unmixing_path():
    called = set()
    for path in BENCH_SOURCES:
        called |= {c.func.attr for c in _package_uses(ast.parse(path.read_text()))[1]}
    assert {"init_all", "fit", "compose_expanded", "gen_dataset"} <= called


# string-named bindings in perfbench/ that already named no function when
# they were first checked; fix or drop them, and shrink this set, never grow it
DEAD_BENCH_BINDINGS = {
    "solver.project_simplex_columns",
    "initialization.project_simplex_columns",
    "solver.apg_update_factor",
    "simplex.log_gamma",
    "simplex.digamma",
    "simplex.trigamma",
    "simplex.project_simplex_columns",
}


def test_benchmark_string_bindings_resolve():
    # the calibration hooks and the tracer's per-function tables name
    # functions as "module.name" strings, which the call scan does not see
    calibrate = runpy.run_path(str(ROOT / "perfbench" / "calibrate.py"))
    tracer = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))
    names = {f"{module}.{name}" for module, name in calibrate["HOOKS"]}
    for table in ("_NAMERS", "_SIZERS", "SPECIAL_FUNCTIONS"):
        names |= set(tracer[table])
    dead = set()
    for binding in names:
        module, name = binding.split(".")
        if not hasattr(importlib.import_module("mssmf." + module), name):
            dead.add(binding)
    assert dead == DEAD_BENCH_BINDINGS


def test_benchmark_contracts_beyond_the_scan(rng):
    # the benchmark passes this as update_beta's integer `passes`
    assert type(mssmf.FitConfig().beta_steps_per_outer) is int
    # the tracer imports these modules and wraps FactorStack.replace
    for name in runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))["MODULES"]:
        importlib.import_module("mssmf." + name)
    assert "replace" in mssmf.FactorStack.__dict__
    # the benchmark reads the expanded matrix through .data; small integers
    # times dyadic weights make the product exact in any summation order
    basis = rng.integers(1, 9, (7, 3)).astype(np.float64)
    mixer = np.array(
        [[1.0, 0.0, 0.5, 0.0, 0.25], [0.0, 1.0, 0.5, 0.0, 0.25], [0.0, 0.0, 0.0, 1.0, 0.5]]
    )
    got = np.asarray(mssmf.compose_expanded(mssmf.FactorStack(basis, [mixer])).data)
    want = basis @ mixer
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# equations of DERIVATION.md that no test cites, by number; a test that
# checks one removes it from this set, which may shrink and never grow
UNTESTED_EQUATIONS = {6}


def _cited(paths):
    """The equation numbers that the files at paths cite as (Dn)."""
    return {int(n) for p in paths for n in re.findall(r"\(D(\d+)\)", p.read_text())}


def test_every_equation_is_cited_by_a_test_and_every_citation_exists():
    # DERIVATION.md defines each equation once, as a bold (Dn) at the start
    # of a line, numbered from 1 without a gap
    defined = [int(n) for n in re.findall(r"^\*\*\(D(\d+)\)", DERIVATION.read_text(), re.M)]
    assert defined == list(range(1, len(defined) + 1))
    cited = _cited(SOURCES + TEST_SOURCES + [README])
    assert sorted(cited - set(defined)) == []
    assert set(defined) - _cited(TEST_SOURCES) == UNTESTED_EQUATIONS
