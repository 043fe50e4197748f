"""Import layering: a run loads only what it runs, and every public name stays.

The package ``__init__`` modules resolve their re-exported names on first
access (:mod:`repro._lazy`).  These tests hold both halves of that contract:

* a fresh interpreter that imports the front door, resolves the kernel and
  runs a link scenario never loads the service, the cluster, the NoC, the
  electrical baselines or the heavy standard-library modules they need;
* every name in every package's ``__all__`` resolves to the object its
  defining module holds and is listed by ``dir()``, and a name that is also
  the name of a submodule (``repro.core.throughput``, ``repro.noc.broadcast``)
  is the exported object whichever was imported first.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every package whose ``__init__`` re-exports names lazily.
PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.cluster",
    "repro.core",
    "repro.electrical",
    "repro.modulation",
    "repro.noc",
    "repro.photonics",
    "repro.scenarios",
    "repro.service",
    "repro.simulation",
    "repro.spad",
    "repro.tdc",
)

#: Modules a link run must not load, each with its submodules.
NOT_IN_A_LINK_RUN = (
    "repro.service",
    "repro.cluster",
    "repro.noc",
    "repro.electrical",
    "asyncio",
    "http.client",
    "email",
    "ssl",
    "multiprocessing",
    "concurrent.futures",
)


def _run_fresh(code: str, *args: str) -> str:
    """Run ``code`` with ``args`` in a fresh interpreter; its stdout."""
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _loaded_by(run: str) -> list:
    """The modules of :data:`NOT_IN_A_LINK_RUN` that ``run`` loads."""
    code = "\n".join([
        "import json, sys",
        "before = set(sys.modules)",
        textwrap.dedent(run),
        "forbidden = json.loads(sys.argv[1])",
        "print(json.dumps(sorted(",
        "    name for name in set(sys.modules) - before",
        "    if any(name == p or name.startswith(p + '.') for p in forbidden))))",
    ])
    return json.loads(_run_fresh(code, json.dumps(NOT_IN_A_LINK_RUN)).splitlines()[-1])


def test_a_link_run_loads_no_service_cluster_noc_or_pool_module():
    assert _loaded_by("""
        from repro.frontdoor import RunRequest
        from repro.kernels import get_kernel

        get_kernel()
        report = RunRequest.build("ber-vs-photons", seed=0, bits=256).runner().run()
        assert len(report.points) == 6
    """) == []


def test_repro_run_from_the_cli_loads_none_of_them_either(tmp_path):
    store = str(tmp_path / "store")
    assert _loaded_by(f"""
        from repro.cli import main

        assert main(["run", "ber-vs-photons", "--bits", "256", "--quiet",
                     "--store", {store!r}]) == 0
    """) == []


def _top_level_definitions(path: Path):
    """Names a module binds at top level by ``def``, ``class`` or assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


def _defining_module(package: str, name: str, value) -> str:
    """The module that defines ``value``: its ``__module__`` when that is a
    ``repro`` module, else the one module under the package that binds
    ``name`` at top level (constants, typing aliases)."""
    module = getattr(value, "__module__", None)
    if isinstance(module, str) and module.startswith("repro."):
        return module
    root = SRC / package.replace(".", "/")
    definers = [
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in sorted(root.rglob("*.py"))
        if path.name != "__init__.py" and name in _top_level_definitions(path)
    ]
    assert len(definers) == 1, (package, name, definers)
    return definers[0]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_is_its_defining_modules_object(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        if name == "__version__":
            assert isinstance(module.__version__, str)
            continue
        value = getattr(module, name)
        defining = importlib.import_module(_defining_module(package, name, value))
        assert value is getattr(defining, name), (package, name)
        assert name in listed, (package, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_attribute_is_exported_or_a_submodule(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        getattr(module, name)
    for name in dir(module):
        if name.startswith("_") or name in module.__all__:
            continue
        assert isinstance(getattr(module, name), types.ModuleType), (package, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_raises_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'no_such_name'"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


def test_a_subpackage_is_an_attribute_after_a_bare_import():
    assert _run_fresh("""
        import repro

        print(repro.noc.OpticalBus.__module__, repro.cluster.ClusterExecutor.__module__)
    """).split() == ["repro.noc.bus", "repro.cluster.executor"]


def _shadowing_names():
    """``[package, name]`` for every exported name that is also a submodule."""
    pairs = []
    for package in PACKAGES:
        module = importlib.import_module(package)
        submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
        pairs.extend([package, name] for name in sorted(submodules & set(module.__all__)))
    return pairs


def test_the_two_known_shadowing_names_are_found():
    found = {tuple(pair) for pair in _shadowing_names()}
    assert {("repro.core", "throughput"), ("repro.noc", "broadcast")} <= found


@pytest.mark.parametrize("submodule_first", [True, False], ids=["submodule-first", "package-first"])
def test_a_name_that_shadows_its_submodule_is_the_exported_object(submodule_first):
    pairs = _shadowing_names()
    checked = _run_fresh("""
        import importlib
        import json
        import sys
        import types

        pairs, submodule_first = json.loads(sys.argv[1]), sys.argv[2] == "1"
        for package, name in pairs:
            order = [package + "." + name, package]
            for module in order if submodule_first else order[::-1]:
                importlib.import_module(module)
        for package, name in pairs:
            value = getattr(sys.modules[package], name)
            assert not isinstance(value, types.ModuleType), (package, name)
            assert value is getattr(sys.modules[package + "." + name], name), (package, name)
            namespace = {}
            exec(f"from {package} import {name} as imported", namespace)
            assert namespace["imported"] is value, (package, name)
            print(package, name)
    """, json.dumps(pairs), "1" if submodule_first else "0")
    assert checked.splitlines() == [f"{package} {name}" for package, name in pairs]
