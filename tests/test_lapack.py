import json
import os
import subprocess
import sys
from pathlib import Path

import attostm

_SAME_OBJECTS = """
import json, sys
from attostm import _lapack
assert "scipy.linalg" not in sys.modules
import scipy.linalg.blas, scipy.linalg.lapack
print(json.dumps({name: getattr(_lapack, name) is getattr(module, name)
                  for module, names in ((scipy.linalg.lapack,
                                         ("zgtsv", "dgtsv", "dstebz", "dstein")),
                                        (scipy.linalg.blas, ("zdotu", "zaxpy")))
                  for name in names}))
"""


def test_routines_are_scipy_linalgs_own():
    # loaded first, the extensions are the ones a later import of
    # scipy.linalg finds in sys.modules
    src = str(Path(attostm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", _SAME_OBJECTS], env=env,
                         capture_output=True, text=True, check=True)
    same = json.loads(run.stdout.splitlines()[-1])
    assert same == dict.fromkeys(
        ("zgtsv", "dgtsv", "dstebz", "dstein", "zdotu", "zaxpy"), True)
