"""No unused imports or private names in ``src/pnewton``, checked with the standard library alone.

Every name an import statement binds must appear again in its module, as a
name the code reads (string annotations included) or an entry of the module's
``__all__``. An import on a line marked ``# noqa: F401`` is exempt: it keeps a
binding that a tool outside the package patches. Every private (``_``-prefixed)
function, class or constant defined at a module's top level must be read in
that module too, so a helper that a merge leaves behind fails here. Every name
``pnewton.harness`` exports must have a caller outside the tests: a read in
``src/pnewton``, a mention in the README or the console-script entry. Every
error class but the base ``PnewtonError`` must be constructed somewhere in the
package outside ``errors.py``, so an error that nothing raises any more goes.
Every entry of every ``__all__`` must name an object its module binds, so a
stale entry cannot break ``from <module> import *``. ``diagnostics._whiten`` has
one call site, the spectrum builder ``_spectrum``, so no function whitens its
``(H, G)`` apart from the one spectrum it reads every quantity from. An
``IterateTrace`` is constructed only in ``solvers.run``, so every trace holds the
``SolverConfig`` it ran with, which the certifiers read ``G`` and ``L`` from.
Which methods get a certificate, and from which certifier, is one table,
``diagnostics.CERTIFIERS``: no other module defines a method->certifier map.
ANM's composite value ``V`` is one function, ``solvers.composite_value``, called
by the trace writer ``solvers._record``, the level-set test
``solvers.in_level_set`` and the certifier ``diagnostics._certify_records``
alone, and its f* slack is one constant; ``objective`` holds models only, so
none of its functions takes a ``rho``, ``G`` or step constant. ANM's range
hypothesis is one function, ``diagnostics._range_hypothesis``, the one caller of
``range_check`` in ``diagnostics``, which ``verify_step_energy_bound`` and the
certifier both call. The
input rules for numbers (``is_integer``, ``is_number``, ``positive_number``,
``positive_penalty``, ``positive_integer``) are defined in ``linalg`` alone, beside
``as_symmetric``, and the model boundary in ``objective`` reads them instead of its
own tests. What a step reads is one rule, ``SolverConfig.step_inputs``: the one
call of ``.diagonal()`` in ``solvers`` is there, and neither ``run`` nor the
certifier evaluates a Hessian itself. ``SolverConfig`` is the one settings record:
a spec's ``SolverSpec`` holds its fields under their names (``tol`` aside), and the
preconditioner has one spelling list, ``solvers.PRECONDITIONERS``: ``diag`` has no
second name. Whether a matrix ``G`` is PD is one rule, ``linalg.pd_preconditioner``:
``NotPositiveDefinite`` is raised only by that rule, ``inv_sqrt_pd``, ``spd_solve``,
``step_inputs`` (a diagonal ``G``) and ``_Spectrum.K`` (``H^{-1}`` at ``rho = inf``),
and the one Cholesky of a ``G``, in ``_whiten``, sits in no ``try``. A spec is checked
by ``ExperimentSpec``'s constructor alone: ``from_dict`` raises only its JSON-object
refusal, and a problem key that differs from its description is refused in
``_problem_desc`` alone. ``src/`` stays within ROADMAP aim 2's line budget.
"""

import ast
import importlib
import re
import tomllib
from pathlib import Path

import pytest

import pnewton.harness
from pnewton import diagnostics, solvers

SRC = Path(__file__).parents[1] / "src" / "pnewton"


def _imported(tree: ast.Module, lines: list[str]):
    """``(name, line)`` for each name an import binds, skipping ``__future__`` and ``# noqa: F401`` lines."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0], node.lineno


def _listed(tree: ast.Module) -> list[str]:
    """The entries of the module's ``__all__``; none when it has no ``__all__``."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets) for name in ast.literal_eval(node.value)]


def _used(tree: ast.Module) -> set[str]:
    """The names ``tree`` reads, the names inside its string annotations and the entries of its ``__all__``."""
    used = set(_listed(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval")) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_every_imported_name_is_used(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree, source.splitlines()) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_every_all_entry_names_a_bound_object(path):
    listed = _listed(ast.parse(path.read_text(encoding="utf-8")))  # read, not imported: __main__ runs the CLI
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    module = importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts)) if listed else None
    unbound = [name for name in listed if not hasattr(module, name)]
    assert not unbound, f"{path.name} lists names in __all__ that it does not bind: {', '.join(unbound)}"


def _top_level_names(tree: ast.Module):
    """``(name, line)`` for each function, class or constant a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for target in assigned for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node.lineno) for name in targets)


def _private_definitions(tree: ast.Module):
    """``(name, line)`` for each private function, class or constant a module defines at its top level."""
    return [(name, line) for name, line in _top_level_names(tree) if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_every_private_module_name_is_read_in_its_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _used(tree)
    unread = [f"{name} (line {line})" for name, line in _private_definitions(tree) if name not in read]
    assert not unread, f"{path.name} defines private names it never reads: {', '.join(unread)}"


def _read_outside_definition(tree: ast.Module):
    """The names and attributes ``tree`` reads, each outside the top-level definition of that same name."""
    for node in tree.body:
        own = getattr(node, "name", None)
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) else getattr(sub, "attr", None)
            if name is not None and name != own:
                yield name


def test_every_harness_export_has_a_caller_outside_the_tests():
    # import and __all__ lines bind or list a name without reading it, so neither counts as a caller
    called = {name for path in SRC.rglob("*.py")
              for name in _read_outside_definition(ast.parse(path.read_text(encoding="utf-8")))}
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    with open(SRC.parents[1] / "pyproject.toml", "rb") as fh:
        scripts = {entry.rpartition(":")[2] for entry in tomllib.load(fh)["project"]["scripts"].values()}
    uncalled = [name for name in pnewton.harness.__all__
                if name not in called | scripts and not re.search(rf"\b{name}\b", readme)]
    assert not uncalled, f"pnewton.harness exports names only the tests call: {', '.join(uncalled)}"


def test_every_error_class_is_constructed_outside_errors_py():
    errors = SRC / "errors.py"
    defined = [node.name for node in ast.parse(errors.read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef) and node.name != "PnewtonError"]
    constructed = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                   for path in SRC.rglob("*.py") if path != errors
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Call)}
    unused = [name for name in defined if name not in constructed]
    assert unused == [], f"errors.py defines classes the package never constructs: {', '.join(unused)}"


def _scoped_callers(callee: str) -> list[tuple[str, str]]:
    """``(file name, dotted name of the enclosing defs and classes)`` for each call of ``callee`` in ``src/pnewton``.

    A call is matched by name or attribute; one outside every definition has the scope ``""``.
    """
    sites = []

    def visit(path: Path, node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(path, child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call) and callee in (getattr(child.func, name, None) for name in ("id", "attr")):
                sites.append((path.name, scope))
            visit(path, child, scope)

    for path in sorted(SRC.rglob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), "")
    return sites


def _callers(callee: str) -> list[tuple[str, str]]:
    """``(file name, top-level definition)`` for each call of ``callee`` in ``src/pnewton``, by name or attribute."""
    return [(name, scope.partition(".")[0]) for name, scope in _scoped_callers(callee)]


def test_one_rule_decides_whether_a_matrix_g_is_pd():
    # pd_preconditioner is the PD test of a matrix G and inv_sqrt_pd reads the same rule; the other raises are a
    # failed shifted solve, a diagonal G with a nonpositive entry and a singular H at rho = inf, none a test of G
    assert sorted(_scoped_callers("NotPositiveDefinite")) == [
        ("diagnostics.py", "_Spectrum.K"), ("linalg.py", "inv_sqrt_pd"), ("linalg.py", "pd_preconditioner"),
        ("linalg.py", "spd_solve"), ("solvers.py", "SolverConfig.step_inputs")]
    # the whitening trusts its G: its Cholesky is the only one, and no try turns a failure into a PD verdict
    assert _scoped_callers("cholesky") == [("diagnostics.py", "_whiten")]
    whiten = next(node for node in ast.parse((SRC / "diagnostics.py").read_text(encoding="utf-8")).body
                  if getattr(node, "name", None) == "_whiten")
    assert not [node for node in ast.walk(whiten) if isinstance(node, ast.Try)]


def test_whiten_has_one_call_site_the_spectrum_builder():
    callers = _callers("_whiten")
    assert callers == [("diagnostics.py", "_spectrum")], f"_whiten is called from {callers}"


def test_iterate_trace_is_constructed_only_in_run():
    callers = _callers("IterateTrace")
    assert callers == [("solvers.py", "run")], f"IterateTrace is constructed in {callers}"


def test_one_table_says_which_methods_are_certified_and_by_what():
    # every entry names a public certifier; every method but damped_newton, whose line search is outside the
    # theorem, has one; and no other module keeps its own map (a top-level *CERTIFIERS name) or the old _CERTIFIERS
    assert set(diagnostics.CERTIFIERS.values()) <= set(diagnostics.__all__)
    assert all(callable(getattr(diagnostics, name)) for name in diagnostics.CERTIFIERS.values())
    assert set(solvers.METHODS) - set(diagnostics.CERTIFIERS) == {"damped_newton"}
    tables = [(path.name, name) for path in sorted(SRC.rglob("*.py"))
              for name, _ in _top_level_names(ast.parse(path.read_text(encoding="utf-8")))
              if name.endswith("CERTIFIERS")]
    assert tables == [("diagnostics.py", "CERTIFIERS")], f"method->certifier tables: {tables}"
    assert not [path.name for path in SRC.rglob("*.py") if "_CERTIFIERS" in path.read_text(encoding="utf-8")]


def test_the_composite_value_is_one_function_with_three_callers_and_one_slack():
    # V_k = f(x_k) - f* + (L / 2 rho_k) ||x_k - x_{k-1}||^2_G: the trace's lyapunov column, the level-set test and
    # the augmented certificate score it with the same function, and no other function defines it (no *lyapunov* def)
    assert "composite_value" in solvers.__all__
    assert set(_callers("composite_value")) == {
        ("solvers.py", "_record"), ("solvers.py", "in_level_set"), ("diagnostics.py", "_certify_records")}
    trees = {name: ast.parse((SRC / name).read_text(encoding="utf-8")) for name in ("solvers.py", "diagnostics.py")}
    defined = [node.name for path in SRC.rglob("*.py") for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and "lyapunov" in node.name]
    assert defined == [], f"functions named for the Lyapunov value besides composite_value: {defined}"
    # the f* slack is written once, as solvers.FSTAR_SLACK; the clamp band and the certifiers' premise read it
    slacks = [(name, node.lineno) for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and node.value == 1e-9]
    assert slacks == [("solvers.py", dict(_top_level_names(trees["solvers.py"]))["FSTAR_SLACK"])], slacks


def test_objective_holds_models_only():
    # the composite value's rho, G and step constant belong to solvers; no objective function takes one
    taken = [(node.name, arg.arg) for node in ast.walk(ast.parse((SRC / "objective.py").read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef)
             for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
             if arg.arg in ("rho", "G", "step_L")]
    assert taken == [], f"objective.py functions that take a solver parameter: {taken}"


def test_the_range_hypothesis_is_one_function_that_both_readers_call():
    # H is PD, or the step is 0, or G (x_k - x_{k-1}) lies in Range(H): diagnostics._range_hypothesis alone tests it
    assert [c for c in _callers("range_check") if c[0] == "diagnostics.py"] == [("diagnostics.py", "_range_hypothesis")]
    assert set(_callers("_range_hypothesis")) == {
        ("diagnostics.py", "verify_step_energy_bound"), ("diagnostics.py", "_certify_records")}


def _excludes_bools(node: ast.AST) -> bool:
    """Whether ``node`` is ``not isinstance(<value>, bool)``: a test that keeps a bool out of the numbers."""
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not) and isinstance(node.operand, ast.Call)
            and getattr(node.operand.func, "id", None) == "isinstance"
            and getattr(node.operand.args[-1], "id", None) == "bool")


def test_the_number_rules_are_defined_once_in_linalg_and_read_at_the_model_boundary():
    rules = ("is_integer", "is_number", "positive_number", "positive_penalty", "positive_integer")
    trees = {str(p.relative_to(SRC)): ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.rglob("*.py"))}
    defined = [(name, rule) for name, tree in trees.items() for rule, _ in _top_level_names(tree) if rule in rules]
    assert defined == [("linalg.py", rule) for rule in rules], f"number rules defined at {defined}"
    # only those rules keep a bool out of the numbers (a true/false switch may still test isinstance(v, bool))
    excluders = sorted({name for name, tree in trees.items() for node in ast.walk(tree) if _excludes_bools(node)})
    assert excluders == ["linalg.py"], f"modules that decide for themselves that a bool is no number: {excluders}"
    # the model boundary reads the shared rules: alpha is one positive number, (L, mu) two numbers
    assert ("objective.py", "GlmProblem") in _callers("positive_number")
    assert ("objective.py", "ObjectiveModel") in _callers("is_number")
    compared = [node.lineno for node in ast.walk(trees["objective.py"]) if isinstance(node, ast.Compare)
                and "alpha" in {getattr(n, "id", None) for n in (node.left, *node.comparators)}]
    assert compared == [], f"objective.py compares alpha itself on lines {compared}"


def test_each_step_reads_its_h_and_g_from_step_inputs():
    # which G a step reads (the preconditioner's for pnm and anm, the identity for a Newton step) is decided in
    # SolverConfig.step_inputs alone, where diag reads H's diagonal; run and the certifier take each step's (H, G)
    assert [c for c in _callers("diagonal") if c[0] == "solvers.py"] == [("solvers.py", "SolverConfig")]
    readers = {("solvers.py", "run"), ("diagnostics.py", "_certify_records")}
    assert readers <= set(_callers("step_inputs"))
    assert not readers & set(_callers("hessian")), f"hessian is called from {_callers('hessian')}"


def test_solver_config_is_the_one_settings_record():
    # a spec's solver holds SolverConfig's fields under their names, tol (grad_tol) and its file name aside
    spec_fields = set(pnewton.harness.SolverSpec.__dataclass_fields__) - {"name", "tol"}
    assert spec_fields == set(solvers.SolverConfig.__dataclass_fields__) - {"grad_tol"}
    assert list(solvers.SolverConfig.__dataclass_fields__) == [
        "method", "precond", "rho0", "c", "rho_max", "step_L", "max_iters", "grad_tol"]
    # the preconditioner has one spelling list, and the library's old name for diag is gone
    assert solvers.PRECONDITIONERS == ("identity", "diag")
    named = [str(p.relative_to(SRC)) for p in sorted(SRC.rglob("*.py")) if "hessian_diagonal" in p.read_text("utf-8")]
    assert named == [], f"files that name hessian_diagonal: {named}"
    assert not hasattr(pnewton.harness.experiment, "PRECONDITIONERS")


def test_a_spec_is_checked_by_its_constructor_alone():
    # from_dict is ExperimentSpec(**d) behind its JSON-object test, so a spec file and a Python caller meet one check
    trees = {str(p.relative_to(SRC)): ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.rglob("*.py"))}
    spec = next(node for node in trees["harness/experiment.py"].body if getattr(node, "name", None) == "ExperimentSpec")
    from_dict = next(node for node in spec.body if getattr(node, "name", None) == "from_dict")
    raises = [ast.unparse(node) for node in ast.walk(from_dict) if isinstance(node, ast.Raise)]
    assert len(raises) == 1 and "must be a JSON object" in raises[0], f"from_dict raises {raises}"
    # a problem key that differs from its description is refused where the description is built, and nowhere else
    builders = [(name, node.name) for name, tree in trees.items() for node in tree.body
                for const in ast.walk(node) if isinstance(const, ast.Constant)
                and isinstance(const.value, str) and "differs from the spec's" in const.value]
    assert builders == [("harness/experiment.py", "_problem_desc")], f"the conflict line is built in {builders}"


#: ROADMAP aim 2's target for ``cat src/pnewton/*.py src/pnewton/harness/*.py | wc -l``.
LINE_BUDGET = 2500


def test_src_stays_within_the_roadmap_line_budget():
    files = sorted(SRC.glob("*.py")) + sorted((SRC / "harness").glob("*.py"))
    lines = sum(path.read_bytes().count(b"\n") for path in files)  # what wc -l counts
    assert lines <= LINE_BUDGET, f"src/ has {lines} lines, above the budget of {LINE_BUDGET}"
