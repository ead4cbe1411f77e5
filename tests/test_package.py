"""The package's export list."""

import betaop


def test_all_is_exactly_the_public_classes_and_functions():
    public = {name for name, obj in vars(betaop).items()
              if callable(obj) and not name.startswith("_")}
    assert set(betaop.__all__) - {"__version__"} == public
    assert len(betaop.__all__) == len(set(betaop.__all__))
