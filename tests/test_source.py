"""Source checks: module imports stay at module level and form no cycle,
only spectra.py knows how a spectrum lays out its coefficients,
closedform.py has one antiderivative term type and one evaluator and
derives without a memo, on integer numerators (no Fraction on the
derivation path but in its scalar set-up), the Gegenbauer recurrence is written once, in
geometry.py, each fact of G has one owner (a's root and the excluded
degree the parameter record, t's range geometry._clamp_t, the antipode
ClosedForm), a record's fields that its inputs fix cannot be passed
(init=False: SphereContext's lam and sigma_n, ScaleGrid's nodes and
weights, HelmholtzParameter's L and root, ClosedForm's a), the solve
computes the eigenvalue gap once, over f's own degrees, and neither the
condition warnings nor a single Green coefficient builds an array over
every degree up to the top one, the series backend's Abel sums go
through geometry.gegenbauer_sums and never build the Gegenbauer matrix,
every public function and class has a user outside the tests, and no
module imports SciPy: green.py integrates, wavelets.py builds its
scale grids and spectra.py its Gauss rules with NumPy and math alone, so
neither importing the package nor building a rule and analysing with it
loads SciPy."""

import ast
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spherepde import HelmholtzParameter, make_context

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spherepde"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(SRC.glob("*.py"))}


def test_no_import_inside_a_function_or_class():
    nested = []
    for name, tree in MODULES.items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested += [f"{name}.py:{node.lineno} in {scope.name}"
                           for node in ast.walk(scope)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, nested


def _package_imports(tree):
    """Sibling modules a module imports with `from . import x` or `from .x import y`."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
    return out & MODULES.keys()


def test_package_imports_form_no_cycle():
    # __init__ re-exports every module and cli imports it for __version__
    graph = {name: _package_imports(tree) - {"__init__"} for name, tree in MODULES.items()}
    done, path = set(), []

    def visit(name):
        assert name not in path, " -> ".join(path[path.index(name):] + [name])
        if name not in done:
            path.append(name)
            for dep in sorted(graph[name]):
                visit(dep)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)
    assert "green" not in graph["closedform"] | graph["green_tables"]


def _names(tree):
    """Every name a module uses or defines: variables, attributes, imports,
    classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.alias, ast.ClassDef, ast.FunctionDef)):
            yield node.name


def test_spectrum_layout_stays_in_spectra():
    # spectra.unpack / spectra.rebuild are the one view of a spectrum's layout
    general = sorted(name for name, tree in MODULES.items()
                     if "GeneralSpectrum" in set(_names(tree)))
    assert general == ["__init__", "spectra"]
    solver = set(_names(MODULES["solver"]))
    assert not solver & {"ZonalSpectrum", "GeneralSpectrum", "entries", "padded"}


def _function(tree, name):
    (body,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == name]
    return body


def _calls(tree, function):
    """Names of the functions a module-level function calls by plain name."""
    return {node.func.id for node in ast.walk(_function(tree, function))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_closedform_has_one_term_type_and_one_evaluator():
    # Term is the one antiderivative term, in sphere and shifted variables alike
    tree = MODULES["closedform"]
    assert not {"RatTerm", "LogTerm"} & set(_names(tree))
    tagged = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Tuple) and node.elts
              and isinstance(node.elts[0], ast.Constant) and node.elts[0].value in ("rat", "log")]
    assert not tagged, tagged
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert _calls(tree, "expr_eval") & _calls(tree, "eval_shifted") & defined


def test_analysis_streams_the_one_gegenbauer_recurrence():
    # analyze and synthesize take C_l row by row from geometry and never
    # build the (L+1) x m matrix (stacking the rows would list them); the
    # only loop over a range in spectra.py
    # is the orthonormal recurrence of the quadrature rule
    tree = MODULES["spectra"]
    for function in ("analyze", "synthesize"):
        assert "list" not in _calls(tree, function)
        assert "gegenbauer_rows" in _calls(tree, function)
    ranged = sorted({function.name for function in tree.body
                     if isinstance(function, ast.FunctionDef)
                     for node in ast.walk(function)
                     if isinstance(node, (ast.For, ast.comprehension))
                     and isinstance(node.iter, ast.Call)
                     and getattr(node.iter.func, "id", None) == "range"})
    assert ranged == ["gauss_gegenbauer_rule"], ranged


def _reached(tree, root, boundary):
    """{name: definition} of the module-level functions and methods
    (Class.name) that root reaches through calls: f(...) a function or a
    class (its __init__ and __post_init__), x.m(...) a method m of one of
    the module's classes.  Classes in boundary are not entered."""
    defs, methods = {}, {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef) and node.name not in boundary:
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defs[f"{node.name}.{item.name}"] = item
                    methods.setdefault(item.name, set()).add(f"{node.name}.{item.name}")
    reached, todo = {}, [root]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached[name] = defs[name]
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                callee = node.func.id
                todo += [key for key in (callee, f"{callee}.__init__", f"{callee}.__post_init__")
                         if key in defs]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                todo += sorted(methods.get(node.func.attr, ()))
    return reached


def test_derivation_substitutes_through_power_tables_without_a_memo():
    # _substitute reads shared power tables instead of raising powers per
    # monomial; a derivation builds each kernel power antiderivative once;
    # and a memo would make a repeated derivation measure only cache hits
    tree = MODULES["closedform"]
    assert not {"_powers", "_mul"} & _calls(tree, "_substitute")
    built = [node.lineno for node in ast.walk(_function(tree, "derive_green_closed_form"))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None)
             == "_kernel_power_terms"]
    assert len(built) == 2, built
    assert not {"cache", "lru_cache", "functools"} & set(_names(tree))
    # one exact arithmetic: integer numerators over one denominator.  On the
    # derivation path up to its ClosedForm only the scalar set-up names
    # Fraction: the assembler's constants and the shifted family's coefficients
    assert not {"padd", "pscale", "pmul", "ppow"} & set(_names(tree))
    reached = _reached(tree, "derive_green_closed_form", boundary={"ClosedForm"})
    assert {"_reduced", "_sum", "_mul", "_scale", "_substitute", "_gegenbauer_polys",
            "_canonical", "_cancel_factor", "Collector.add_definite",
            "Collector._add_at_infinity", "_finalise"} <= reached.keys()
    naming = sorted(name for name, node in reached.items() if "Fraction" in set(_names(node)))
    assert naming == ["_shifted_power_terms", "derive_green_closed_form",
                      "shifted_leading_coefficient"], naming


def _absolute_imports(tree):
    """Top-level packages a module imports with `import x` or `from x import y`."""
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    return imported | {node.module.split(".")[0] for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.level == 0}


def test_green_imports_neither_scipy_nor_warnings():
    # the integral backend is one fixed Gauss-Legendre rule, no adaptive quad
    tree = MODULES["green"]
    imported = _absolute_imports(tree)
    assert not {"scipy", "warnings"} & imported, imported
    assert "quad" not in set(_names(tree))


def test_wavelets_imports_no_scipy():
    # the scale grid rule needs math.lgamma and |Gamma(m + iy)| in closed form
    imported = _absolute_imports(MODULES["wavelets"])
    assert "scipy" not in imported, imported


def test_importing_the_package_loads_no_scipy_integrate():
    code = ("import sys\n"
            "import spherepde\n"
            "print('scipy.integrate' in sys.modules)\n"
            "import spherepde.cli\n"
            "print('scipy.integrate' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(SRC.parent)})
    assert out.stdout.split() == ["False", "False"], out


def test_no_module_imports_scipy():
    imported = {name: _absolute_imports(tree) for name, tree in MODULES.items()}
    assert not [name for name, packages in imported.items() if "scipy" in packages]


def test_import_and_analysis_load_no_scipy():
    code = ("import sys\n"
            "import spherepde\n"
            "print('scipy' in sys.modules)\n"
            "import spherepde.cli\n"
            "print('scipy' in sys.modules)\n"
            "from spherepde import analyze, default_rule, make_context\n"
            "ctx = make_context(8)\n"
            "rule = default_rule(ctx, 2048)\n"
            "analyze(ctx, lambda t: 1.0 + t * t, 2048, rule)\n"
            "print('scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(SRC.parent)})
    assert out.stdout.split() == ["False", "False", "False"], out


def test_geometry_alone_decides_roots_and_t_range():
    # helmholtz_root reads RESONANCE_RTOL and _clamp_t reads _T_SLACK
    for constant in ("RESONANCE_RTOL", "_T_SLACK"):
        owners = sorted(name for name, tree in MODULES.items() if constant in set(_names(tree)))
        assert owners == ["geometry"], (constant, owners)


def test_green_rederives_no_fact_of_its_inputs():
    # no per-degree pole test (ResonanceError), no second depth for the
    # excluded degree (corr_top), no reading of a row's terms for its antipode
    tree = MODULES["green"]
    assert "terms" not in {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used = set(_names(tree)) & {"ResonanceError", "corr_top"}
    assert not used, used


def _excluded_degree_spellings():
    """(module, class, function) of every `x.L_res if x.resonant else -1`."""
    found = []
    for name, tree in MODULES.items():
        scopes = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        scopes += [(node.name, item) for node in tree.body if isinstance(node, ast.ClassDef)
                   for item in node.body if isinstance(item, ast.FunctionDef)]
        for cls, function in scopes:
            for node in ast.walk(function):
                if (isinstance(node, ast.IfExp)
                        and getattr(node.body, "attr", None) == "L_res"
                        and getattr(node.test, "attr", None) == "resonant"
                        and ast.unparse(node.orelse) == "-1"):
                    found.append((name, cls, function.name))
    return found


def test_the_excluded_degree_is_spelled_once():
    assert _excluded_degree_spellings() == [("green", "HelmholtzParameter", "excluded")]


def test_the_record_computes_its_own_roots():
    # HelmholtzParameter(ctx, a) decides L and root; neither can be passed in
    ctx = make_context(2)
    p = HelmholtzParameter(ctx, 2)
    assert (p.a, p.L, p.root, p.excluded) == (2.0, 1.0, Fraction(1), 1)
    for given in ({"L": 1.0}, {"root": Fraction(1)}, {"L": 1.0, "root": Fraction(1)}):
        with pytest.raises(TypeError):
            HelmholtzParameter(ctx, 2.0, **given)


def _records_setting_fields():
    """(module, class, field, declared with init=False, read as self.field) for
    each declared field a dataclass's __post_init__ sets through
    object.__setattr__ (private attributes it caches are not fields)."""
    found = []
    for name, tree in MODULES.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            declared = {item.target.id: item.value for item in cls.body
                        if isinstance(item, ast.AnnAssign)}
            post = [item for item in cls.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"]
            for node in (n for p in post for n in ast.walk(p)):
                if (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
                        and getattr(node.args[1], "value", None) in declared):
                    field = node.args[1].value
                    value = declared.get(field)
                    derived = (isinstance(value, ast.Call) and ast.unparse(value.func) == "field"
                               and any(k.arg == "init" and ast.unparse(k.value) == "False"
                                       for k in value.keywords))
                    read = any(isinstance(n, ast.Attribute) and n.attr == field
                               and ast.unparse(n.value) == "self" and isinstance(n.ctx, ast.Load)
                               for n in ast.walk(post[0]))
                    found.append((name, cls.name, field, derived, read))
    return found


def test_records_compute_what_their_inputs_fix():
    # a field a record sets for itself either cannot be passed (init=False)
    # or is one of its inputs normalised in place (n to an int, a to a float)
    found = _records_setting_fields()
    assert {(m, c, f) for m, c, f, derived, _read in found if derived} == {
        ("closedform", "ClosedForm", "a"),
        ("geometry", "SphereContext", "lam"), ("geometry", "SphereContext", "sigma_n"),
        ("green", "HelmholtzParameter", "L"), ("green", "HelmholtzParameter", "root"),
        ("wavelets", "ScaleGrid", "nodes"), ("wavelets", "ScaleGrid", "weights")}
    assert all(derived or read for _m, _c, _f, derived, read in found), found


def test_abel_sums_use_the_blocked_recurrence():
    # the series backend's Abel sums never build the Gegenbauer matrix
    called = _calls(MODULES["green"], "_abel_values")
    assert "gegenbauer_sums" in called and "gegenbauer_rows" not in called, called


def test_the_solve_computes_each_gap_once_over_f_own_degrees():
    # one eigen_gap call in _solve, which u, the residual and the pole test
    # read; the warnings and a single coefficient build no array over every
    # degree up to the top one
    calls = [node for node in ast.walk(_function(MODULES["solver"], "_solve"))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "eigen_gap"]
    assert len(calls) == 1
    green = MODULES["green"]
    for function in ("condition_warnings", "green_coefficient"):
        used = set(_names(_function(green, function)))
        assert not used & {"arange", "unique", "green_coefficients"}, (function, used)


def test_every_public_name_has_a_user_outside_the_tests():
    # a public module-level function or class is used in src, exported by
    # __init__ (an import alias), or named in the README or a demo; one
    # that only the tests call is test code in the library
    used = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    docs = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]
    named = {word for path in docs
             for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))}
    unused = sorted(f"{module}.{node.name}" for module, tree in MODULES.items()
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in used | named)
    assert not unused, unused
