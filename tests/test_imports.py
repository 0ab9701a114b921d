"""Smoke tests: every ``repro.*`` (sub)module imports cleanly and the
package-level docstring examples actually run (ISSUE 1 satellite)."""

import ast
import doctest
import importlib
import pathlib
import pkgutil

import pytest

import repro


def _all_module_names():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        names.append(info.name)
    return sorted(names)


ALL_MODULES = _all_module_names()
TOP_PACKAGES = sorted({name.split(".")[1] for name in ALL_MODULES
                       if name.count(".") >= 1})


def test_every_expected_subpackage_present():
    assert TOP_PACKAGES == ["cim", "compsoc", "core", "crypto",
                            "faults", "hades", "obs", "rtos",
                            "runtime", "soc", "tee"]


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_imports(name):
    importlib.import_module(name)


def test_hades_quick_use_doctest():
    """The quick-use example in ``repro.hades`` must stay runnable."""
    module = importlib.import_module("repro.hades")
    results = doctest.testmod(module, verbose=False)
    assert results.attempted >= 5
    assert results.failed == 0


def test_obs_quick_use_doctest_style():
    """Run the README-style obs example end to end."""
    from repro.obs import Telemetry

    telemetry = Telemetry(enabled=True)
    with telemetry.span("my.phase", size=42):
        telemetry.counter("my.items").inc()
    (record,) = telemetry.tracer.snapshot()
    assert record["name"] == "my.phase"
    assert telemetry.metrics_snapshot()["my.items"]["value"] == 1


def _imported_roots(path: pathlib.Path) -> set:
    """Top-level package names of the absolute imports in one file."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_production_never_imports_test_oracles():
    """Test oracles (``tests/reference``) stay out of production: no
    module under ``src/repro`` may import ``tests`` or ``reference``."""
    package_dir = pathlib.Path(repro.__file__).parent
    offenders = sorted(
        f"{path.relative_to(package_dir)}: {root}"
        for path in package_dir.rglob("*.py")
        for root in _imported_roots(path) & {"tests", "reference"})
    assert offenders == []
