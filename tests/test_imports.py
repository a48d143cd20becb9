import os
import subprocess
import sys
from pathlib import Path

import pufcommit


def _fresh_python(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports this package."""
    src = str(Path(pufcommit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_no_pufcommit_module_imports_numpy():
    # the package runs on the standard library and PyYAML alone; numpy
    # would cost about 14 MB of RSS and 0.1 s at every experiment's import
    out = _fresh_python(
        "import importlib, pkgutil, sys\n"
        "import pufcommit\n"
        "names = [m.name for m in pkgutil.walk_packages(pufcommit.__path__, 'pufcommit.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "print(' '.join(sorted(names)))\n"
        "print('numpy' in sys.modules)\n")
    names, numpy_loaded = out.strip().splitlines()
    for name in ("pufcommit.entropy", "pufcommit.harness.cli",
                 "pufcommit.harness.experiments", "pufcommit.protocols.compiler"):
        assert name in names.split()
    assert numpy_loaded == "False"


def test_token_layers_load_no_report_or_harness_module():
    # the token model and its primitives build no reports; the games that
    # report on them live in the harness
    loaded = _fresh_python(
        "import sys\n"
        "import pufcommit.bits, pufcommit.ecc, pufcommit.prf, pufcommit.fuzzy, pufcommit.puf\n"
        "print(' '.join(m for m in sys.modules if m.startswith('pufcommit')))\n").split()
    assert "pufcommit.puf" in loaded and "pufcommit.fuzzy" in loaded
    assert [m for m in loaded
            if m == "pufcommit.report" or m.startswith("pufcommit.harness")] == []


def test_lemma_suite_loads_no_report_or_harness_module():
    # the entropy lemmas return counts; the lemmas experiment reports them
    loaded = _fresh_python(
        "import sys\n"
        "import pufcommit.entropy\n"
        "print(' '.join(m for m in sys.modules if m.startswith('pufcommit')))\n").split()
    assert "pufcommit.entropy" in loaded
    assert [m for m in loaded
            if m == "pufcommit.report" or m.startswith("pufcommit.harness")] == []


def test_a_run_mutates_no_module_level_container():
    # state a run keeps belongs to its session or its parties; a module's
    # dict, list or set would be shared by every run in the process
    out = _fresh_python(
        "import importlib, pkgutil, sys\n"
        "import pufcommit\n"
        "for m in pkgutil.walk_packages(pufcommit.__path__, 'pufcommit.'):\n"
        "    importlib.import_module(m.name)\n"
        "def containers():\n"
        "    return {(mod, name): value.copy()\n"
        "            for mod, module in list(sys.modules.items())\n"
        "            if mod.startswith('pufcommit')\n"
        "            for name, value in vars(module).items()\n"
        "            if type(value) in (dict, list, set) and not name.startswith('__')}\n"
        "before = containers()\n"
        "from pufcommit.harness.config import ExperimentConfig\n"
        "from pufcommit.harness.experiments import PROTOCOL_TABLE, run_experiment\n"
        "for cfg in [ExperimentConfig('completeness', protocol=name, trials=1)\n"
        "            for name in PROTOCOL_TABLE] + [ExperimentConfig('fe-roundtrip', trials=1)]:\n"
        "    assert run_experiment(cfg).successes == 1, cfg\n"
        "after = containers()\n"
        "print(len(before), sorted(f'{mod}.{name}' for mod, name in before\n"
        "                          if after.get((mod, name)) != before[(mod, name)]))\n")
    count, changed = out.split(" ", 1)
    assert int(count) > 0
    assert changed.strip() == "[]"
