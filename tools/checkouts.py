"""Import the ``src/puredist`` of a checkout under a package name of its own.

The timing tools (``verify_split.py``, ``pool_time.py``) load two checkouts'
packages in one process this way, as ``puredist_a`` and ``puredist_b``,
and run them side by side; the package imports itself only relatively, so
the two never share a module. Importing this module pins BLAS to one
thread, as ``perfbench/run.py`` does, so both tools import it before numpy
loads.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def load_package(name: str, root: Path):
    """``root``'s ``src/puredist`` imported as the package ``name``, with
    every module that a ``perfbench`` job uses (``cli`` imports them all).
    A package loaded before under ``name`` is dropped first, modules and all."""
    for stale in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[stale]
    src = root / "src" / "puredist"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    importlib.import_module(f"{name}.cli")
    return sys.modules[name]
