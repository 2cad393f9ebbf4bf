"""scipy stays off the import path: the disk's Bessel functions and zeros
are the package's own, so no op loads any scipy module.  The walk forks its
shards with ``os.fork``, so no process pool is imported either, and the
resolvent's random probes come from the walk's splitmix64 streams, so
``verify`` never loads ``numpy.random``.

Each case runs in a fresh interpreter, since this test session has scipy
imported already.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import jumpspectra

SRC = os.path.dirname(os.path.dirname(os.path.abspath(jumpspectra.__file__)))
# an L2 density, so verify runs every probe row, the adjoint ones included
GROUND_STATE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs", "disk_ground_state.json")
WALK = {"step_dt": 1e-4, "n_steps": 500, "n_paths": 50, "n_bins": 8,
        "seed": 5, "l1_threshold": 2.0}
RECT = {
    "version": 1,
    "domain": {"kind": "rectangle", "side_x": math.pi,
               "side_y": 1.2337 * math.pi},
    "measure": {"variant": "perturbed", "base": "uniform",
                "v_modes": {"0": 0.7, "1": 0.4, "4": 0.5}, "v_scale": 0.02},
    "cutoff": 300.0,
    "window": [-1.0, 30.0, -10.0, 10.0],
    "k": 2,
    "tasks": ["spectrum", "enclosure_thm1", "enclosure_thm2",
              "enclosure_thm3", "prop_real", "numrange", "simulate"],
    "walk": WALK,
    "seed": 1,
}
DISK = {
    "version": 1,
    "domain": {"kind": "disk"},
    "measure": {"variant": "ground_state"},
    "cutoff": 300.0,
    "window": [-1.0, 30.0, -10.0, 10.0],
    "tasks": ["spectrum", "simulate"],
    "walk": WALK,
    "seed": 1,
}


def modules_after(code: str, top: str) -> list:
    """Names of the modules under the top-level package ``top`` loaded after
    ``code`` runs in a fresh interpreter."""
    script = (code + "\nimport sys, json\nprint(json.dumps(sorted("
              f"m for m in sys.modules if m.split('.')[0] == {top!r})))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def cli_script(tmp_path, cfg, commands) -> str:
    """Code that runs each CLI command on ``cfg``, quietly, in process."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return ("import contextlib, io, os\nfrom jumpspectra import cli\n"
            f"for cmd in {list(commands)!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        cli.main([cmd, {str(path)!r}, '--out', "
            f"os.path.join({str(tmp_path)!r}, cmd)])\n")


def test_import_loads_no_scipy():
    assert modules_after("import jumpspectra.cli", "scipy") == []


@pytest.mark.parametrize("top", ["multiprocessing", "concurrent"])
def test_import_loads_no_process_pool(top):
    assert modules_after("import jumpspectra.cli", top) == []


def test_rectangle_run_and_verify_load_no_scipy(tmp_path):
    loaded = modules_after(cli_script(tmp_path, RECT, ["run", "verify"]),
                           "scipy")
    assert loaded == []
    # the ops really ran: every task wrote its verdict
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert [r["name"] for r in summary["results"]] == RECT["tasks"]


POINT_MASS = dict(DISK, measure={"variant": "dirac", "x0": 0.03, "y0": -0.01},
                  tasks=["spectrum", "numrange", "figure1"])


@pytest.mark.parametrize("command", ["run", "verify"])
def test_disk_run_and_verify_load_no_scipy(tmp_path, command):
    code = ""
    for name, cfg in (("ground", DISK), ("point", POINT_MASS)):
        (tmp_path / name).mkdir()
        code += cli_script(tmp_path / name, cfg, [command])
    assert modules_after(code, "scipy") == []
    if command == "run":      # the ops really ran: every task has a verdict
        for name, cfg in (("ground", DISK), ("point", POINT_MASS)):
            summary = json.loads(
                (tmp_path / name / "run" / "summary.json").read_text())
            assert [r["name"] for r in summary["results"]] == cfg["tasks"]


def test_verify_loads_no_numpy_random():
    code = ("import contextlib, io\nfrom jumpspectra import cli\n"
            "out = io.StringIO()\nwith contextlib.redirect_stdout(out):\n"
            f"    assert cli.main(['verify', {GROUND_STATE!r}]) == 0\n"
            "assert 'adjoint_pairing' in out.getvalue()\n"
            "assert 'nonselfadjointness' in out.getvalue()\n")
    assert "numpy.random" not in modules_after(code, "numpy")
    # negative control: the same check sees numpy.random once it is loaded
    assert "numpy.random" in modules_after(code + "import numpy.random\n",
                                           "numpy")
