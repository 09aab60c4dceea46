"""Every ``repro`` package's ``__all__`` names what it exports, once each.

A deletion that leaves a stale re-export behind fails here: the name is
still listed but no longer resolves.
"""

import collections
import importlib
import pkgutil

import pytest

import repro


def _packages() -> list[str]:
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix=f"{repro.__name__}."):
        if info.ispkg:
            names.append(info.name)
    return sorted(
        name for name in names if hasattr(importlib.import_module(name), "__all__")
    )


PACKAGES = _packages()


def test_packages_are_found():
    assert {"repro.data", "repro.scenarios", "repro.nn"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve_once(name):
    package = importlib.import_module(name)
    exported = list(package.__all__)
    repeated = [item for item, count in collections.Counter(exported).items() if count > 1]
    assert not repeated, f"{name}.__all__ lists {repeated} more than once"
    missing = [item for item in exported if not hasattr(package, item)]
    assert not missing, f"{name}.__all__ lists {missing}, which {name} does not define"
