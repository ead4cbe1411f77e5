"""The package's export list."""

import ast
from pathlib import Path

import betaop

ROOT = Path(__file__).resolve().parents[1]
# the paper's proof objects, which only the acceptance tests run
PROOF_OBJECTS = ("hor13_reconstruction", "lemmaPk_decomposition_check", "chosen_level")


def test_all_is_exactly_the_public_classes_and_functions():
    public = {name for name, obj in vars(betaop).items()
              if callable(obj) and not name.startswith("_")}
    assert set(betaop.__all__) - {"__version__"} == public
    assert len(betaop.__all__) == len(set(betaop.__all__))


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
    in the tests. The paper's proof objects are the exception."""
    sources = [p for p in (ROOT / "src" / "betaop").glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    used = set().union(*map(_names_used, sources))
    assert [name for name in betaop.__all__
            if name not in used and name not in PROOF_OBJECTS] == []
