import json
import math
import re

import numpy as np
import pytest

from jumpspectra import cli

DISK_SMALL = {
    "version": 1,
    "domain": {"kind": "disk"},
    "measure": {"variant": "uniform"},
    "cutoff": 400.0,
    "window": [-1.0, 32.0, -10.0, 10.0],
    "tasks": ["spectrum"],
    "seed": 7,
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_spectrum(tmp_path):
    path = write_config(tmp_path, DISK_SMALL)
    out = str(tmp_path / "out")
    assert cli.main(["run", path, "--out", out]) == cli.EXIT_PASS
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["results"][0]["verdict"] == "pass"
    assert (tmp_path / "out" / "spectrum.csv").exists()


def test_ground_state_spectrum_json(tmp_path, disk_basis):
    cfg = dict(DISK_SMALL, measure={"variant": "ground_state"})
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["run", path, "--out", out]) == cli.EXIT_PASS
    payload = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    certified = sorted({round(e["value_re"], 4) for e in payload["entries"]
                        if e["kind"] != "undetermined_dirichlet"})
    dirichlet = sorted({round(float(l), 4) for l in disk_basis.eigenvalues
                        if l <= 32.0})
    lam1 = round(float(disk_basis.eigenvalues[0]), 4)
    assert certified == [0.0] + [l for l in dirichlet if l != lam1]


def test_run_determinism(tmp_path):
    path = write_config(tmp_path, dict(DISK_SMALL, tasks=["spectrum", "figure1"],
                                       thresholds=[0.1, 0.3]))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", path, "--out", out1]) == cli.EXIT_PASS
    assert cli.main(["run", path, "--out", out2]) == cli.EXIT_PASS
    for name in ("summary.json", "spectrum.csv", "spectrum.json",
                 "enclosure_curves.csv", "enclosure.svg"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_invalid_configs(tmp_path):
    bad = [
        dict(DISK_SMALL, domain={"kind": "triangle"}),
        dict(DISK_SMALL, tasks=["bogus"]),
        dict(DISK_SMALL, tasks=[]),
        dict(DISK_SMALL, window=[5.0, 1.0, -1.0, 1.0]),
        dict(DISK_SMALL, window=[-1.0, 399.0, -1.0, 1.0]),
        dict(DISK_SMALL, measure={"variant": "circle"}),
        dict(DISK_SMALL, domain={"kind": "rectangle", "side_x": 2.0,
                                 "side_y": 2.0},
             measure={"variant": "circle", "r0": 0.5}),
        dict(DISK_SMALL, measure={"variant": "nope"}),
    ]
    for i, cfg in enumerate(bad):
        path = write_config(tmp_path, cfg, f"bad{i}.json")
        assert cli.main(["run", path]) == cli.EXIT_CONFIG, cfg


@pytest.mark.parametrize("walk", [
    {"n_paths": "many"}, {"n_bins": 0}, {"step_dt": -1e-4}, {"n_paths": 0},
    {"n_steps": -5}, {"boundary_tolerance": -0.01},
    {"boundary_tolerance": math.nan}, {"l1_threshold": 0.0},
    {"l1_threshold": math.inf}, {"step_dt": 10.0}, "fast",
])
def test_invalid_walk_configs(tmp_path, capsys, walk):
    cfg = dict(DISK_SMALL, tasks=["simulate"], walk=walk)
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) \
        == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: walk")


def test_missing_config_file():
    assert cli.main(["run", "/nonexistent/cfg.json"]) == cli.EXIT_CONFIG


def test_verify_pass(tmp_path):
    path = write_config(tmp_path, DISK_SMALL)
    assert cli.main(["verify", path, "--out",
                     str(tmp_path / "v")]) == cli.EXIT_PASS


def test_verify_fault_injection(tmp_path):
    path = write_config(tmp_path, DISK_SMALL)
    code = cli.main(["verify", path, "--out", str(tmp_path / "vf"),
                     "--inject-fault", "moments"])
    assert code == cli.EXIT_FAIL


def test_verify_inapplicable_exit(tmp_path):
    # a valid but inadmissible perturbation (norm above the smallness
    # threshold, density still nonnegative) surfaces as exit 3, never as a
    # silent pass
    cfg = dict(DISK_SMALL,
               measure={"variant": "perturbed", "base": "uniform",
                        "v_modes": {"1": 1.0}, "v_scale": 0.25},
               tasks=["spectrum"])
    path = write_config(tmp_path, cfg)
    code = cli.main(["verify", path, "--out", str(tmp_path / "vi")])
    assert code == cli.EXIT_UNDECIDED


def test_run_perturbed_rectangle(tmp_path):
    cfg = {
        "version": 1,
        "domain": {"kind": "rectangle", "side_x": math.pi,
                   "side_y": 1.2337 * math.pi},
        "measure": {"variant": "perturbed", "base": "uniform",
                    "v_modes": {"0": 0.7, "1": 0.4, "4": 0.5},
                    "v_scale": 0.02},
        "cutoff": 600.0,
        "window": [-1.0, 40.0, -10.0, 10.0],
        "k": 2,
        "tasks": ["enclosure_thm1", "enclosure_thm2", "prop_real"],
        "seed": 1,
    }
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["run", path, "--out", out]) == cli.EXIT_PASS
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    verdicts = {r["name"]: r["verdict"] for r in summary["results"]}
    assert verdicts["enclosure_thm1"] == "pass"
    assert verdicts["enclosure_thm2"] == "pass"
    assert verdicts["prop_real"] == "pass"


def test_run_simulate_task(tmp_path):
    cfg = dict(DISK_SMALL, tasks=["simulate"],
               walk={"step_dt": 1e-4, "n_steps": 4000, "n_paths": 400,
                     "n_bins": 16, "l1_threshold": 0.2})
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["run", path, "--out", out]) == cli.EXIT_PASS
    assert (tmp_path / "out" / "occupation.csv").exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    (row,) = summary["results"]
    assert re.fullmatch(r"L1 distance \d\.\d{4} \(threshold 0\.2\); "
                        r"restarts [1-9]\d*; rejection acceptance 0/0",
                        row["detail"]), row["detail"]


def test_figure1_subcommand(tmp_path):
    out = str(tmp_path / "fig")
    assert cli.main(["figure1", "--thresholds", "0.1,0.4",
                     "--out", out]) == cli.EXIT_PASS
    svg = (tmp_path / "fig" / "enclosure.svg").read_text()
    assert svg.startswith("<svg")
    assert "threshold 0.1" in svg


def test_density_grid_roundtrip(tmp_path):
    grid = np.full((9, 9), 1.0 / math.pi)
    cfg = dict(DISK_SMALL,
               measure={"variant": "density_grid",
                        "values": grid.tolist()})
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path, "--out",
                     str(tmp_path / "out")]) == cli.EXIT_PASS


def test_density_csv_file(tmp_path):
    rows = []
    for x in np.linspace(-1, 1, 9):
        for y in np.linspace(-1, 1, 9):
            rows.append(f"{x},{y},{1.0 / math.pi}")
    csv_path = tmp_path / "w.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    cfg = dict(DISK_SMALL,
               measure={"variant": "density_grid", "file": str(csv_path)})
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path, "--out",
                     str(tmp_path / "out")]) == cli.EXIT_PASS


def test_cutoff_and_seed_overrides(tmp_path):
    path = write_config(tmp_path, DISK_SMALL)
    out = str(tmp_path / "out")
    assert cli.main(["run", path, "--out", out, "--seed", "99",
                     "--cutoff", "500"]) == cli.EXIT_PASS
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["seed"] == 99
    assert summary["config"]["cutoff"] == 500


def test_numrange_direction_labels(tmp_path):
    path = write_config(tmp_path, dict(DISK_SMALL, cutoff=300.0,
                                       tasks=["numrange"]))
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == cli.EXIT_PASS
    summary = json.loads((out / "summary.json").read_text())
    (row,) = summary["results"]
    labels = [part.split(":")[0] for part in row["detail"].split("; ")]
    assert labels == ["dir +1", "dir -1", "dir +i", "dir -i"]
