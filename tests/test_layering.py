"""Module boundaries inside the package: no module imports another
module's underscore (private) names or reads its private attributes, the
top level exports a pinned set, and importing the package stays cheap."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cpdsplit
from cpdsplit import admm, driver, pds

SRC = Path(cpdsplit.__file__).parent


def test_no_module_imports_private_names():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith("cpdsplit")
            for alias in node.names:
                if internal and alias.name.startswith("_"):
                    offenders.append("%s:%d imports %s" % (path.name, node.lineno, alias.name))
    assert not offenders, offenders


def _names_bound(tree):
    """The names a module binds: functions, classes, variables, class
    fields and the attributes it assigns."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            bound.add(node.attr)
    return bound


def test_no_module_reads_another_modules_private_attributes():
    # ``x._name`` only where ``_name`` is defined: a module that needs what
    # another keeps private asks for a public field instead
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = _names_bound(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr.startswith("_") and not node.attr.endswith("__")
                    and node.attr not in own):
                offenders.append("%s:%d reads .%s" % (path.name, node.lineno, node.attr))
    assert not offenders, offenders


def test_no_module_has_an_unused_import():
    # no linter runs on the package or the tests, so an import that a
    # deletion leaves behind is caught here; a ``# noqa: F401`` import is
    # kept on purpose (the benchmark's tracer looks up khatri_rao in admm)
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and "__all__" in {
                    t.id for t in node.targets if isinstance(t, ast.Name)}:
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if "# noqa: F401" in "\n".join(lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append("%s:%d imports %s" % (path.name, node.lineno, name))
    assert not unused, unused


# called n_inner times per mode visit (khatri_rao once per visit): the fit's
# door checks their arguments once, and these trust it
PER_ITERATION_PRIMITIVES = {
    "operators.py": ("linop_forward", "linop_adjoint", "project", "prox_conjugate",
                     "prox_apply"),
    "tensor.py": ("khatri_rao",),
}


def test_the_per_iteration_primitives_raise_nothing():
    # a re-check that creeps back in, directly or through a function of the
    # same module that the primitive calls, is caught here
    offenders = []
    for module, names in PER_ITERATION_PRIMITIVES.items():
        tree = ast.parse((SRC / module).read_text(), filename=module)
        defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        for name in names:
            todo, seen = [name], set()
            while todo:
                fn = todo.pop()
                seen.add(fn)
                for node in ast.walk(defs[fn]):
                    if isinstance(node, ast.Raise):
                        offenders.append("%s:%d %s (via %s)" % (module, node.lineno, name, fn))
                    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id in defs and node.func.id not in seen):
                        todo.append(node.func.id)
    assert not offenders, offenders


def test_both_inner_solvers_plug_into_the_outer_loop_with_one_call():
    # alternate takes each solver's solve as it is, on the mode's (F, G)
    # pair: the same call for both, no start function or state class, and
    # no adapter closure in either fit; nor a raise, since a refusal written
    # in a fit's body cannot be checked by run_experiment before its first fit
    assert (list(inspect.signature(pds.solve_subproblem).parameters)
            == list(inspect.signature(admm.solve_subproblem_admm).parameters)
            == ["state", "spec", "W", "B", "grams", "bound", "n_inner"])
    assert list(inspect.signature(driver.alternate).parameters)[-1] == "solve"
    for module in (pds, admm):
        assert not hasattr(module, "initial_state"), module.__name__
    defined = ["%s:%d" % (path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef) and node.name == "SubproblemState"]
    assert not defined, defined
    offenders = []
    for module, name in ((driver, "factorize"), (admm, "ao_admm_factorize")):
        tree = ast.parse(inspect.getsource(getattr(module, name)))
        offenders += ["%s.%s line %d: %s" % (module.__name__, name, node.lineno,
                                             type(node).__name__)
                      for node in ast.walk(tree.body[0])
                      if node is not tree.body[0]
                      and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                            ast.Raise))]
    assert not offenders, offenders


PUBLIC_API = {
    "DriverConfig", "ModeSpec", "FitResult", "TraceRecord", "factorize",
    "objective", "ao_admm_factorize", "UnsupportedSpecError", "Projection",
    "ProxFn", "LinOp", "identity_op", "row_difference_op",
    "group_replicate_op", "overlapping_group_lasso", "FactorSet",
    "cp_reconstruct", "mse", "read_tensor", "write_tensor", "read_mask",
    "write_mask", "SyntheticSpec", "ExperimentConfig", "generate_synthetic",
    "run_experiment",
}


def test_public_api_is_the_pinned_set():
    # the inner solvers' plumbing is imported from its submodule
    assert len(cpdsplit.__all__) == len(set(cpdsplit.__all__))
    assert set(cpdsplit.__all__) == PUBLIC_API
    assert all(hasattr(cpdsplit, name) for name in PUBLIC_API)


def _modules_after_import(then="pass"):
    """The names in sys.modules of a fresh interpreter that imported the
    package and ran the statements ``then``."""
    code = "import sys, cpdsplit; %s; print('\\n'.join(sys.modules))" % then
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    return out.stdout.split()


def test_import_does_not_load_scipy_optimize():
    # importing scipy.optimize takes longer than importing this package, and
    # every CLI call and benchmark worker would pay it; the column alignment
    # is solved in-package
    assert "scipy.optimize" not in _modules_after_import()


def test_import_does_not_load_scipy():
    # the ADMM baseline's Cholesky pair is in-package too: scipy.linalg alone
    # took about two thirds of the package's import time
    loaded = _modules_after_import()
    assert "cpdsplit.admm" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    # the seeded start is drawn in-package: numpy.random's extension modules
    # and the OpenSSL library its ``secrets`` import pulls in through
    # hashlib cost about 6 MB of every fit process's memory
    assert "numpy.random" not in loaded
    assert "_hashlib" not in loaded


@pytest.mark.parametrize("fit", ["factorize", "ao_admm_factorize"])
def test_a_fit_on_given_data_loads_neither_numpy_random_nor_openssl(fit):
    # both fits draw their start from driver._uniform_stream
    loaded = _modules_after_import(
        "import numpy as np; Y = np.arange(60.0).reshape(3, 4, 5) %% 7; "
        "cpdsplit.%s(Y, None, [cpdsplit.ModeSpec()] * 3, "
        "cpdsplit.DriverConfig(rank=2, max_outer=3, stop_metric='objective_rel_change', "
        "seed=5))" % fit)
    assert "numpy.random" not in loaded
    assert "_hashlib" not in loaded


def _module_level(tree):
    """The nodes of a module outside its function bodies."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inside.update(id(n) for n in ast.walk(node))
    return [n for n in ast.walk(tree) if id(n) not in inside]


def test_no_module_loads_numpy_random_at_import():
    # bench draws synthetic data through np.random inside a function; a
    # module-level import or lookup would load it for every fit
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in _module_level(ast.parse(path.read_text(), filename=str(path))):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "") + "." + a.name for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.value.id + "." + node.attr]
            offenders += ["%s:%d %s" % (path.name, node.lineno, n) for n in names
                          if n.split(".")[:2] in (["numpy", "random"], ["np", "random"])]
    assert not offenders, offenders


def test_each_artifact_has_one_home():
    # the factor archive is saved and loaded by tensorio alone, the synthetic
    # streams (the observed mask's too) are drawn by bench.generate_synthetic
    # alone, and the CLI parses arguments and calls the package: it imports
    # neither numpy nor FactorSet
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        within = {id(node): fn.name for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            if path.name == "cli.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                offenders += ["%s imports %s" % (where, n) for n in names
                              if n.split(".")[0] == "numpy" or n == "FactorSet"]
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            call = node.func.attr
            if (call in ("save", "savez", "savez_compressed", "load")
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                    and path.name != "tensorio.py"):
                offenders.append("%s calls np.%s" % (where, call))
            if call == "default_rng" and (path.name, within.get(id(node))) != (
                    "bench.py", "generate_synthetic"):
                offenders.append("%s calls default_rng" % where)
    assert not offenders, offenders


def _names_used(tree, skip=()):
    """Every identifier a module names in code: variables, attributes,
    imported names and exact-identifier strings (``__all__``, the
    benchmark's rebinding tables), outside the line ranges in ``skip``."""
    used = set()
    for node in ast.walk(tree):
        line = getattr(node, "lineno", None)
        if line is not None and any(a <= line <= b for a, b in skip):
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_public_definition_has_a_caller_outside_the_tests():
    # a public top-level function or class must be named outside its own
    # definition: in another line of the package, in __all__, or by the
    # benchmark harness; one only tests reach is dead code
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    bench = SRC.parent.parent / "perfbench"
    outside = set()
    for path in sorted(bench.glob("*.py")):
        outside |= _names_used(ast.parse(path.read_text(), filename=str(path)))
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            span = [(node.lineno, node.end_lineno)]
            if any(node.name in _names_used(t, span if p == path else ())
                   for p, t in trees.items()) or node.name in outside:
                continue
            unused.append("%s:%d %s" % (path.name, node.lineno, node.name))
    assert not unused, unused


def _is_float64(node):
    return isinstance(node, ast.Attribute) and node.attr == "float64"


def test_the_float64_decision_has_one_home():
    # tensor.as_real hands on every real array as C-ordered float64, and the
    # tensor file reader returns its payload as float64; no other function
    # converts to float64, by ``.astype(np.float64, ...)`` or ``dtype=np.float64``
    homes = {("tensor.py", "as_real"), ("tensorio.py", "read_tensor")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        within = {id(node): fn.name for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            astype = (isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
                      and node.args and _is_float64(node.args[0]))
            keyword = any(k.arg == "dtype" and _is_float64(k.value) for k in node.keywords)
            if astype or keyword:
                found.append((path.name, within.get(id(node)), node.lineno))
    assert {(name, fn) for name, fn, _ in found} == homes, found
    assert len(found) == len(homes), found
