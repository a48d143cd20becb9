import os
import subprocess
import sys
from pathlib import Path

import pufcommit


def test_no_pufcommit_module_imports_numpy():
    # the package runs on the standard library and PyYAML alone; numpy
    # would cost about 14 MB of RSS and 0.1 s at every experiment's import
    src = str(Path(pufcommit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import importlib, pkgutil, sys\n"
            "import pufcommit\n"
            "names = [m.name for m in pkgutil.walk_packages(pufcommit.__path__, 'pufcommit.')]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "print(' '.join(sorted(names)))\n"
            "print('numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    names, numpy_loaded = out.stdout.strip().splitlines()
    for name in ("pufcommit.entropy", "pufcommit.harness.cli",
                 "pufcommit.harness.experiments", "pufcommit.protocols.compiler"):
        assert name in names.split()
    assert numpy_loaded == "False"
