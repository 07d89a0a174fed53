"""The package namespace: ``import covercalc`` loads nothing, and each name in
``__all__`` resolves on first access to the object its home module defines."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covercalc

# the directory holding the package this suite imports: src/ in the checkout,
# site-packages when run against an installed package
SRC = Path(covercalc.__file__).resolve().parents[1]


def test_import_loads_no_submodule():
    code = "import sys, covercalc; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'covercalc'))"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "covercalc\n", "")


@pytest.mark.parametrize("name", covercalc.__all__)
def test_each_name_is_its_home_modules_object(name):
    value = getattr(covercalc, name)
    assert value.__module__.startswith("covercalc.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_dir_lists_every_exported_name():
    assert set(covercalc.__all__) <= set(dir(covercalc))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'covercalc' has no attribute 'no_such_name'$"):
        covercalc.no_such_name
    assert not hasattr(covercalc, "LaurentPoly")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from covercalc import *", namespace)
    assert {name: namespace[name] for name in covercalc.__all__} == {
        name: getattr(covercalc, name) for name in covercalc.__all__
    }


def test_submodules_import_through_the_package():
    from covercalc import engine

    assert engine is sys.modules["covercalc.engine"]
    assert engine.cwl_delta is covercalc.cwl_delta


def test_the_package_ships_exactly_its_modules():
    # an installed tree keeps no stale module: |H_1| lives in knots, and laurent is gone
    assert {path.name for path in (SRC / "covercalc").glob("*.py")} == {
        "__init__.py", "cli.py", "diagrams.py", "engine.py", "knots.py", "lifts.py", "records.py",
        "signs.py",
    }
    with pytest.raises(ModuleNotFoundError, match="^No module named 'covercalc.laurent'$"):
        importlib.import_module("covercalc.laurent")
