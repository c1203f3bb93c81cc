"""scipy's private files, loaded by their paths.

The package needs four LAPACK routines from scipy's f2py module
``scipy/linalg/_flapack`` and the DOP853 tableau in
``scipy/integrate/_ivp/dop853_coefficients.py``.  Importing them through
their packages runs ``scipy/__init__.py`` and the subpackage's
``__init__``, which pull in ``numpy.f2py``, ``numpy.ma``, ``numpy.random``
and ``unittest`` (about 0.2 s and 20 MB of every process).  Both files
need only numpy, so ``_load`` runs the one file: scipy is found by
``importlib.util.find_spec``, which executes none of its code.

The files are private to scipy, so the versions the tests run with are
pinned; a scipy without one of them fails at import with an ImportError
that names the path and the version.
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


def _load(name, parts, suffixes):
    """The module of the first file ``os.path.join(scipy, *parts) + suffix``
    that exists, run once and kept in ``sys.modules`` as ``name``."""
    if name in sys.modules:
        return sys.modules[name]
    base = os.path.join(_scipy_dir(), *parts)
    paths = [base + s for s in suffixes]
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


def flapack():
    """scipy's f2py LAPACK module, kept under its own name, so that
    scipy.linalg, when a caller imports it later, reuses this one."""
    return _load("scipy.linalg._flapack", ("linalg", "_flapack"),
                 importlib.machinery.EXTENSION_SUFFIXES)


def dop853_coefficients():
    """scipy's DOP853 tableau module."""
    return _load("multibump._dop853_coefficients",
                 ("integrate", "_ivp", "dop853_coefficients"), (".py",))
