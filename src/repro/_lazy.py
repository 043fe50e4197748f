"""Package re-exports resolved on first access (PEP 562).

Each package ``__init__`` names the submodule behind every name it
re-exports and installs the module-level ``__getattr__`` and ``__dir__`` that
:func:`exports` returns.  The first read of a name imports its submodule and
caches the value in the package namespace, so later reads are plain
attribute lookups that never reach ``__getattr__`` again.  Importing a
package therefore runs only its ``__init__``: a link run never loads the HTTP
service, the cluster, the NoC or the electrical baselines.  Any other name is
tried as a submodule, so ``repro.noc`` still works after a bare
``import repro``.

A name that is also the name of the submodule it comes from
(``repro.core.throughput``, ``repro.noc.broadcast``) is bound at once.
Importing a submodule sets the package attribute of that name to the module
object, and ``__getattr__`` is never consulted for a name that is set, so a
lazy binding would leave the module where the function belongs whenever the
submodule happened to be imported first.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def exports(
    package: str, names: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``.

    ``names`` maps each module, relative to ``package`` (``".backend"``), to
    the names the package re-exports from it.  Call it from the package's
    own ``__init__``, which is already in :data:`sys.modules` while it runs.
    """
    namespace = sys.modules[package].__dict__
    origins: Dict[str, str] = {}
    for module, exported in names.items():
        for name in exported:
            origins[name] = module
            if module.rpartition(".")[2] == name:
                namespace[name] = getattr(importlib.import_module(module, package), name)

    def __getattr__(name: str) -> Any:
        if name in origins:
            module = importlib.import_module(origins[name], package)
            value = namespace[name] = getattr(module, name)
            return value
        if name.isidentifier():
            # A submodule, bound on the package by its import: ``repro.noc``
            # after a bare ``import repro``, as when the package imported
            # everything up front.
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origins))

    return __getattr__, __dir__
