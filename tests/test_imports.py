"""What importing bellpath loads.

The package resolves its re-exported names on first use, and the modules on
a clock-model wing's path (``cli``, ``config``, ``harness``, ``hv_models``,
``rng``) import numpy only inside the functions that need arrays, so a wing
starts and serves without it.
"""

import importlib
import subprocess
import sys

import pytest

import bellpath
from bellpath import harness
from bellpath.hv_models import ClockModel, Setting

#: Runs ``python -m bellpath.cli`` with its arguments under an import hook
#: that refuses numpy and everything below it.
NUMPY_BLOCKED_CLI = """
import runpy
import sys


class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"numpy import refused: {name}")
        return None


sys.meta_path.insert(0, RefuseNumpy())
runpy.run_module("bellpath.cli", run_name="__main__", alter_sys=True)
"""


def test_importing_the_cli_loads_no_numpy():
    code = ("import sys, bellpath.cli\n"
            "from bellpath import ClockModel, Setting, model_from_file\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _spawn_blocked_wing(wing, model_cfg, policy_seed):
    proc = subprocess.Popen(
        [sys.executable, "-c", NUMPY_BLOCKED_CLI, "wing", "--wing", wing,
         "--model-config", str(model_cfg), "--policy", "random",
         "--choices", "i0,i2,a2.5", "--policy-seed", str(policy_seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    words = proc.stdout.readline().split()
    if len(words) != 5:
        proc.kill()
        _, err = proc.communicate(timeout=10)
        pytest.fail(f"wing {wing} did not announce a port: {err}")
    return proc, (words[3], int(words[4]))


def test_clock_wing_serves_a_run_without_numpy(tmp_path):
    cfg = tmp_path / "clock.cfg"
    cfg.write_text("model=clock\nb_convention=anti_aligned\n")
    model = ClockModel()
    seeds = {"A": 17, "B": 18}
    wings = {}
    try:
        for wing, seed in seeds.items():
            wings[wing] = _spawn_blocked_wing(wing, cfg, seed)
        log = harness.source_run(model, 50, 9, wings["A"][1], wings["B"][1])
    finally:
        results = {wing: (proc, *proc.communicate(timeout=10)) for wing, (proc, _) in wings.items()}
    for proc, _, err in results.values():
        assert proc.returncode == 0, err
        assert err == ""
    assert not log.incomplete
    assert harness.audit_log(log).ok
    choices = [Setting.from_text(t) for t in ("i0", "i2", "a2.5")]
    sim = harness.simulate_run(model, harness.RandomPolicy(choices, seeds["A"]),
                               harness.RandomPolicy(choices, seeds["B"]), 50, 9)
    assert [(e.direction, e.message) for e in log.entries] == \
        [(e.direction, e.message) for e in sim.entries]


# -- the lazy package --------------------------------------------------------------


@pytest.mark.parametrize("name, module", sorted(bellpath._EXPORTS.items()))
def test_every_exported_name_is_its_module_attribute(name, module):
    assert getattr(bellpath, name) is getattr(importlib.import_module(f"bellpath.{module}"), name)
    assert name in dir(bellpath)


def test_star_import_gives_every_exported_name():
    namespace = {}
    exec("from bellpath import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bellpath._EXPORTS)


def test_unknown_names_are_refused():
    with pytest.raises(AttributeError, match="no_such_name"):
        bellpath.no_such_name
    with pytest.raises(ImportError):
        exec("from bellpath import no_such_name", {})
