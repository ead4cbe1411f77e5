"""The package's export list."""

import ast
import types
from pathlib import Path

import betaop

ROOT = Path(__file__).resolve().parents[1]


def test_all_is_exactly_the_public_classes_and_functions():
    public = {name for name, obj in vars(betaop).items()
              if callable(obj) and not name.startswith("_")}
    assert set(betaop.__all__) - {"__version__"} == public
    assert len(betaop.__all__) == len(set(betaop.__all__))


def _library_sources() -> list:
    """The betaop modules but __init__, which only re-exports, the demos and
    the bench."""
    sources = [p for p in (ROOT / "src" / "betaop").glob("*.py") if p.name != "__init__.py"]
    return sources + [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]


def _names_used(path: Path) -> set:
    """Identifiers that the code of path loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_is_used_outside_the_tests():
    """Each exported name is used by a betaop module (its own included, but
    not __init__), a demo or the bench: code that only the tests run belongs
    in the tests."""
    used = set().union(*map(_names_used, _library_sources()))
    assert [name for name in betaop.__all__ if name not in used] == []


def test_every_public_method_is_used_outside_the_tests():
    """Each public method, property, classmethod and staticmethod of an
    exported class is named by a betaop module, a demo or the bench, as
    each export is. Dunders are the exception."""
    used = set().union(*map(_names_used, _library_sources()))
    kinds = (property, classmethod, staticmethod, types.FunctionType)
    methods = ["%s.%s" % (name, attr) for name in betaop.__all__
               if isinstance(cls := getattr(betaop, name), type)
               for attr, value in vars(cls).items()
               if isinstance(value, kinds) and not attr.startswith("_")]
    assert [m for m in methods if m.split(".")[1] not in used] == []
    assert "Polynomial.coeffs" in methods and "QuadNum.floor" in methods


def _defaulted_options() -> dict:
    """(function, parameter) -> positional index, for every parameter with a
    default of a public function or method in src/betaop. A method's index
    counts its arguments after self or cls, as a call through an attribute
    passes them."""
    options = {}
    for path in (ROOT / "src" / "betaop").glob("*.py"):
        tree = ast.parse(path.read_text())
        scopes = [(tree, 0)] + [(node, 1) for node in tree.body
                                if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
        for scope, skip in scopes:
            for fn in scope.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                args = fn.args
                positional = (args.posonlyargs + args.args)[skip:]
                for i, arg in enumerate(positional):
                    if i >= len(positional) - len(args.defaults):
                        options[fn.name, arg.arg] = i
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        options[fn.name, arg.arg] = None
    return options


def _options_set(path: Path) -> set:
    """(function name, parameter name or positional index) for every
    argument that a call in path passes."""
    passed = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        passed.update((name, kw.arg) for kw in node.keywords)
        passed.update((name, i) for i in range(len(node.args)))
    return passed


def test_every_option_is_set_outside_the_tests():
    """Each parameter with a default is passed, by keyword or by position, by
    some call in a betaop module, a demo or the bench: an option that only
    the tests set is a module constant that they can patch."""
    passed = set().union(*map(_options_set, _library_sources()))
    assert sorted(param for (name, param), index in _defaulted_options().items()
                  if (name, param) not in passed and (name, index) not in passed) == []


def test_pieces_are_summed_only_in_piecewise():
    """_pairs_sum and _merged, the core of the one summation walk, are named
    by no betaop module but piecewise.py: any other sum of pieces goes
    through piecewise._walk."""
    others = [path.name for path in (ROOT / "src" / "betaop").glob("*.py")
              if path.name != "piecewise.py" and _names_used(path) & {"_pairs_sum", "_merged"}]
    assert others == []


def test_matrix_helpers_are_named_only_in_spectral():
    """The exact matrix toolkit (mat_eye, mat_mul, mat_sub, mat_scale,
    mat_equal) and sylvester_projections are named by no betaop module but
    spectral.py: a check on the restriction matrix or its projections is
    a method of SpectralData."""
    toolkit = {"mat_eye", "mat_mul", "mat_sub", "mat_scale", "mat_equal",
               "sylvester_projections"}
    others = [path.name for path in (ROOT / "src" / "betaop").glob("*.py")
              if path.name != "spectral.py" and _names_used(path) & toolkit]
    assert others == []
