"""``import divopt`` loads the solver core; analysis, milp and plots load
on first access, through the package or through the CLI commands that use
them."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divopt

LAZY = ("divopt.analysis", "divopt.milp", "divopt.plots")
SUBMODULES = ("analysis", "instances", "milp", "objectives", "plots", "rng",
              "solvers")


def _loaded_after(code: str) -> set[str]:
    """The lazy submodules in sys.modules after code runs in a fresh
    interpreter that imports divopt from this checkout."""
    src = str(Path(divopt.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    probe = f"{code}\nimport sys\nprint(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(LAZY) & set(out.splitlines()[-1].split())


def test_import_loads_only_the_core():
    assert _loaded_after("import divopt") == set()


def test_lazy_names_load_their_submodule():
    assert _loaded_after("import divopt\ndivopt.emit") == {"divopt.milp"}
    assert _loaded_after("from divopt import histogram_svg") \
        == {"divopt.analysis", "divopt.plots"}
    assert _loaded_after("from divopt import *") == set(LAZY)


def test_cli_solve_leaves_milp_and_plots_unloaded(tmp_path):
    inst = divopt.generate(divopt.GeneratorSpec(
        family=divopt.Family.GKD_D, n=10, m=3, seed=0))
    path = tmp_path / "inst.txt"
    path.write_text(divopt.write_instance(inst), encoding="utf-8")
    loaded = _loaded_after(
        "from divopt.cli import main\n"
        f"assert main(['solve', {str(path)!r}, '--model', 'maxmin']) == 0")
    assert not loaded & {"divopt.milp", "divopt.plots"}


@pytest.mark.parametrize("name", divopt.__all__)
def test_public_name_is_its_submodule_attribute(name):
    value = getattr(divopt, name)
    homes = [sub for sub in SUBMODULES
             if hasattr(importlib.import_module(f"divopt.{sub}"), name)]
    assert homes
    for sub in homes:
        assert getattr(importlib.import_module(f"divopt.{sub}"), name) is value
    assert name in dir(divopt)


def test_submodules_resolve_through_the_package():
    import divopt.analysis
    import divopt.milp
    import divopt.plots
    for sub in (divopt.analysis, divopt.milp, divopt.plots):
        assert getattr(divopt, sub.__name__.split(".")[1]) is sub
        assert sub.__name__.split(".")[1] in dir(divopt)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        divopt.no_such_name
