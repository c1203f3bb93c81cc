"""scipy's private LAPACK module, loaded by its path.

The package needs four LAPACK routines from scipy's f2py module
``scipy/linalg/_flapack``.  Importing it through ``scipy.linalg`` runs
``scipy/__init__.py`` and the subpackage's ``__init__``, which pull in
``numpy.f2py``, ``numpy.ma``, ``numpy.random`` and ``unittest`` (about
0.2 s and 20 MB of every process).  The extension needs only numpy, so
``_load`` runs the one file: scipy is found by ``importlib.util.find_spec``,
which executes none of its code.

The file is private to scipy, so the version the tests run with is pinned;
a scipy without it fails at import with an ImportError that names the path
and the version.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def _scipy_dir():
    """scipy's package directory, found without running scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("multibump needs scipy, which is not installed")
    return spec.submodule_search_locations[0]


def _scipy_version():
    import importlib.metadata
    try:
        return importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        return "(version unknown)"


def flapack():
    """scipy's f2py LAPACK module, run once and kept in ``sys.modules``
    under its own name, so that scipy.linalg, when a caller imports it
    later, reuses this one."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    base = os.path.join(_scipy_dir(), "linalg", "_flapack")
    paths = [base + s for s in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy {_scipy_version()} has no "
                          f"{' or '.join(paths)}; multibump loads this "
                          f"private scipy file by its path")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module
