"""The six compiled LAPACK and BLAS routines attostm calls, loaded from
scipy's own f2py extensions without importing the scipy.linalg package.

scipy.linalg's __init__ imports scipy's array-API layer, which clones
numpy and so imports numpy.f2py, numpy.testing, numpy.ma and numpy.random:
on a 2-core host with Python 3.11, numpy 2.4 and scipy 1.17, `import
numpy, scipy.linalg` takes 0.45 s and 55 MB against 0.17 s and 28 MB for
numpy with yaml. The extensions scipy.linalg._flapack and _fblas need only
numpy, so this module loads them directly from scipy's linalg directory.
Each is registered in sys.modules under its own name before it runs, so a
later ordinary `import scipy.linalg` reuses the same module objects, and
the routines here are scipy.linalg.lapack's and scipy.linalg.blas's (the
package then lacks the attributes _flapack and _fblas, which scipy reads
through sys.modules only).

scipy.special cannot be loaded this way: its Cython _ufuncs imports its
package when it loads.
"""

import importlib.util
import os
import sys
from importlib.machinery import PathFinder

# scipy's own __init__ is light (it loads its subpackages lazily) and
# prepares the platform to load its extensions
import scipy


def _extension(name):
    """scipy.linalg.<name>, from sys.modules or loaded from its file."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = PathFinder.find_spec(
        full, [os.path.join(p, "linalg") for p in scipy.__path__])
    if spec is None:
        raise ImportError(f"cannot find {full}", name=full)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[full]
        raise
    return module


_flapack = _extension("_flapack")
_fblas = _extension("_fblas")

zgtsv, dgtsv = _flapack.zgtsv, _flapack.dgtsv
dstebz, dstein = _flapack.dstebz, _flapack.dstein
zdotu, zaxpy = _fblas.zdotu, _fblas.zaxpy
