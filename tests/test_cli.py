import hashlib
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
    (tmp_path / "object.json").write_text('{"a": 1}')
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
        dict(DISK_SMALL, measure={"variant": "circle", "r0": 1.5}),
        dict(DISK_SMALL, measure={"variant": "dirac", "x0": 2.0, "y0": 0.0}),
        dict(DISK_SMALL, measure={"variant": "density_grid",
                                  "values": [1.0, 2.0]}),
        # values of the wrong type, or a missing density file
        [DISK_SMALL],
        dict(DISK_SMALL, tasks=5),
        # tasks is an array of names, not a string or an object of them
        dict(DISK_SMALL, tasks="spectrum"),
        dict(DISK_SMALL, tasks={"spectrum": False}),
        dict(DISK_SMALL, cutoff="abc"),
        dict(DISK_SMALL, measure={"variant": "dirac", "x0": "abc", "y0": 0.0}),
        dict(DISK_SMALL, window=["a", 1, 2, 3]),
        dict(DISK_SMALL, k="abc"),
        dict(DISK_SMALL, domain={"kind": "rectangle", "side_x": math.pi,
                                 "side_y": 1.2337 * math.pi},
             measure={"variant": "perturbed", "base": "uniform",
                      "v_modes": {"0": 0.7, "1": 0.4, "4": 0.5},
                      "v_scale": 0.02},
             k=0, tasks=["enclosure_thm1", "enclosure_thm2"]),
        dict(DISK_SMALL, thresholds=["x"], tasks=["figure1"]),
        dict(DISK_SMALL, measure={"variant": "density_grid",
                                  "file": str(tmp_path / "missing.csv")}),
        # a density file holding an object rather than an array
        dict(DISK_SMALL, measure={"variant": "density_grid",
                                  "file": str(tmp_path / "object.json")}),
        dict(DISK_SMALL, measure={"variant": "density_grid",
                                  "values": [["a", "b"], ["c", "d"]]}),
        dict(DISK_SMALL, measure={"variant": "perturbed", "base": "uniform",
                                  "v_modes": {"abc": 0.5}}),
        # integer fields take integer values only
        dict(DISK_SMALL, k=2.5),
        dict(DISK_SMALL, k="2"),
        dict(DISK_SMALL, k=True),
        dict(DISK_SMALL, k=math.inf),
        dict(DISK_SMALL, seed=7.5),
        dict(DISK_SMALL, seed="7"),
        dict(DISK_SMALL, seed=True),
        dict(DISK_SMALL, seed=math.nan),
        # float fields take finite values only; thresholds are not empty
        dict(DISK_SMALL, window=[-1.0, math.nan, -10.0, 10.0]),
        dict(DISK_SMALL, window=[-math.inf, 32.0, -10.0, 10.0]),
        dict(DISK_SMALL, measure={"variant": "dirac", "x0": math.nan,
                                  "y0": 0.0}),
        dict(DISK_SMALL, measure={"variant": "circle", "r0": math.inf}),
        dict(DISK_SMALL, measure={"variant": "perturbed", "base": "uniform",
                                  "v_modes": {"1": math.nan}}),
        dict(DISK_SMALL, measure={"variant": "perturbed", "base": "uniform",
                                  "v_modes": {"1": 0.5}, "v_scale": math.inf}),
        dict(DISK_SMALL, thresholds=[math.nan, 0.2], tasks=["figure1"]),
        dict(DISK_SMALL, thresholds=[], tasks=["figure1"]),
    ]
    for i, cfg in enumerate(bad):
        path = write_config(tmp_path, cfg, f"bad{i}.json")
        assert cli.main(["run", path]) == cli.EXIT_CONFIG, cfg
    for thresholds in ("x", "nan,0.2", "0.1,inf"):
        assert cli.main(["figure1", "--thresholds", thresholds, "--out",
                         str(tmp_path / "fig")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("walk", [
    {"n_paths": "many"}, {"n_bins": 0}, {"step_dt": -1e-4}, {"n_paths": 0},
    {"n_steps": -5}, {"step_dt": math.nan}, {"l1_threshold": -0.01},
    {"l1_threshold": 0.0}, {"l1_threshold": math.inf}, {"step_dt": 10.0},
    "fast",
    # (walk, measure): the restart point or circle lies in the boundary band
    ({"step_dt": 1e-3}, {"variant": "dirac", "x0": 0.99, "y0": 0.0}),
    ({"step_dt": 1e-3}, {"variant": "circle", "r0": 0.99}),
    # integer fields take integer values only
    {"n_steps": 1.5}, {"n_steps": "12"}, {"n_steps": True},
    {"n_paths": 2.5}, {"n_paths": math.nan}, {"n_bins": math.inf},
    {"n_bins": -math.inf}, {"n_bins": False}, {"seed": 1.5}, {"seed": "7"},
    {"seed": True}, {"seed": math.nan},
])
def test_invalid_walk_configs(tmp_path, capsys, walk):
    walk, measure = walk if isinstance(walk, tuple) \
        else (walk, DISK_SMALL["measure"])
    cfg = dict(DISK_SMALL, tasks=["simulate"], walk=walk, measure=measure)
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) \
        == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: walk")


@pytest.mark.parametrize("n_paths", [2, 1000])
def test_unallocatable_histogram_is_a_config_error(tmp_path, capsys, n_paths):
    # 10**15 int64 cells are more than the x86-64 user address space, so
    # the allocation fails whatever the overcommit setting; 1000 paths fork
    # a second walk shard
    cfg = dict(DISK_SMALL, tasks=["simulate"],
               walk={"n_bins": 10**15, "n_steps": 10_000, "n_paths": n_paths})
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.fullmatch(r"configuration error: out of memory: "
                        r"Unable to allocate .* PiB .*\n", err)


def test_integer_valued_floats_accepted(tmp_path):
    cfg = dict(DISK_SMALL, k=2.0, seed=7.0,
               walk={"n_steps": 20_000.0, "n_paths": 3.0, "n_bins": 8.0})
    exp = cli.build_experiment(cfg, str(tmp_path / "out"))
    values = (exp.k, exp.walk.n_steps, exp.walk.n_paths, exp.walk.n_bins,
              exp.walk.seed)
    assert values == (2, 20_000, 3, 8, 7)
    assert {type(v) for v in values} == {int}


def test_missing_config_file():
    assert cli.main(["run", "/nonexistent/cfg.json"]) == cli.EXIT_CONFIG


def test_verify_pass(tmp_path):
    path = write_config(tmp_path, DISK_SMALL)
    assert cli.main(["verify", path, "--out",
                     str(tmp_path / "v")]) == cli.EXIT_PASS


@pytest.mark.parametrize("out", [None, "D"])
def test_verify_leaves_nothing_behind(tmp_path, monkeypatch, out):
    # verify writes no file, so it makes no directory: not --out D, and
    # not the default out/ in the working directory
    path = write_config(tmp_path, DISK_SMALL)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = ["verify", path] + (["--out", out] if out else [])
    assert cli.main(argv) == cli.EXIT_PASS
    assert list(work.iterdir()) == []


def test_run_skips_the_spectrum_no_check_reads(tmp_path, capsys):
    # the theorems of a point mass are inapplicable and read no spectrum,
    # so run neither builds nor writes it
    cfg = dict(DISK_SMALL, measure={"variant": "dirac", "x0": 0.1, "y0": 0.0},
               tasks=["enclosure_thm1"])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == cli.EXIT_UNDECIDED
    rows = [line.split()[:2] for line in capsys.readouterr().out.splitlines()]
    assert rows == [["enclosure_thm1", "inapplicable"]]
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


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


def test_verify_reports_an_undecidable_spectrum(tmp_path, capsys):
    # near the rim a point mass puts roots where the contour search cannot
    # keep clear of them at this cutoff: both commands say so in a spectrum
    # row and exit 3, and verify leaves out the checks that read it
    cfg = {"domain": {"kind": "disk"},
           "measure": {"variant": "dirac", "x0": 0.9, "y0": 0.0},
           "cutoff": 300, "window": [-1, 200, -60, 60]}
    path = write_config(tmp_path, cfg)
    for command in ("run", "verify"):
        assert cli.main([command, path, "--out", str(tmp_path / command)]) \
            == cli.EXIT_UNDECIDED
        rows = [line.split()[:2]
                for line in capsys.readouterr().out.splitlines()]
        assert ["spectrum", "undecidable"] in rows
        assert not {"conjugation_closure", "spectrum_location"} \
            & {name for name, _ in rows}


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


def test_density_csv_repeated_point_rejected(tmp_path):
    # nine rows over a 3 x 3 lattice, but (-1, -1) twice and (1, 1) never:
    # the missing cell would be left unset
    xs = np.linspace(-1, 1, 3)
    points = [(x, y) for x in xs for y in xs][:-1] + [(-1.0, -1.0)]
    csv_path = tmp_path / "w.csv"
    csv_path.write_text("".join(f"{x},{y},{1.0 / math.pi}\n"
                                for x, y in points))
    with pytest.raises(cli.ConfigError, match="complete lattice"):
        cli._read_density_file(str(csv_path))
    cfg = dict(DISK_SMALL,
               measure={"variant": "density_grid", "file": str(csv_path)})
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path, "--out",
                     str(tmp_path / "out")]) == cli.EXIT_CONFIG


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


def test_numrange_inapplicable_off_bump_point_mass(tmp_path):
    # a valid point mass outside the probe's centred bump cannot normalise
    # the trial states: inapplicable with the reason (exit 3), not a failure
    cfg = dict(DISK_SMALL, tasks=["numrange"],
               measure={"variant": "dirac", "x0": 0.3, "y0": -0.2})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == cli.EXIT_UNDECIDED
    summary = json.loads((out / "summary.json").read_text())
    (row,) = summary["results"]
    assert row["verdict"] == "inapplicable"
    assert "negligible mass on the interior bump" in row["detail"]


SHORT_WALK = {"step_dt": 1e-4, "n_steps": 2000, "n_paths": 200, "n_bins": 8,
              "seed": 5, "l1_threshold": 0.5}
OUTPUT_CONFIGS = {
    "disk": dict(DISK_SMALL, tasks=["spectrum", "numrange", "simulate",
                                    "figure1"], walk=SHORT_WALK),
    "rect": dict(DISK_SMALL,
                 domain={"kind": "rectangle", "side_x": math.pi,
                         "side_y": 3.8757828567337283},
                 measure={"variant": "perturbed", "base": "uniform",
                          "v_modes": {"0": 0.7, "1": 0.4, "4": 0.5},
                          "v_scale": 0.02},
                 k=2, walk=SHORT_WALK,
                 tasks=["spectrum", "enclosure_thm1", "enclosure_thm2",
                        "enclosure_thm3", "prop_real", "numrange",
                        "simulate"]),
    # a point mass on the pi x pi square: clusters of 3 and 4 modes at 50
    # and 65 in the window, and a nonreal pair at 52.67 +- 3.82i
    "square_dirac": dict(DISK_SMALL,
                         domain={"kind": "rectangle", "side_x": math.pi,
                                 "side_y": math.pi},
                         measure={"variant": "dirac", "x0": 1.1, "y0": 0.7},
                         window=[-1.0, 70.0, -10.0, 10.0]),
}
# exit code and SHA-256 of every output file and of the printed rows; the
# rectangle's spectrum, occupation and verify rows re-pinned when the
# perturbation's moments became exact sums over its coefficients, and its
# occupation again when the walk's exit step was binned at its midpoint
PINNED_OUTPUT = {
    ("disk", "run"): (cli.EXIT_PASS, {
        "enclosure.svg":
            "3163e1f4967ad835a76584d697bbf74ad63f693212f7d5a0cb242bca589eb597",
        "enclosure_curves.csv":
            "d38c54924b7c7f8c69964e5fe729dfe4967624f2def433195a3c195a6cc3d65c",
        "numrange_sweep.csv":
            "b83797d0beb91ed27815c3cd238a2c1e12276b446ae056a63e412e168985716f",
        "occupation.csv":
            "9bcf7ffcd86138cc016489a6bad65a0ade582d179950f6d2e8003133d1720a0c",
        "spectrum.csv":
            "3ea095e790c00b98bf297299b4d4bcac8305bd30467a695d22750d82f57f6af9",
        "spectrum.json":
            "ec14bfccd61cc75a21a07e89600ecfc868b02aecade1f807a1857bddf838f3b1",
        "stdout":
            "95b63835a27dd9b75141fec0f7df0ff277745b2c6fb4cdf96fd4a30fe1bd9676",
        "summary.json":
            "423942e5b67d9f2f5bba272fd29f5e94a597e851b7890f8bbb458aa8a752e924",
    }),
    ("disk", "verify"): (cli.EXIT_PASS, {
        "stdout":
            "6f071c1ffd240ccee721211ce21650232b48878cd3b3aa987fc8515a3f50a76d",
    }),
    # enclosure_thm3 is inapplicable to a uniform-base perturbation: exit 3
    ("rect", "run"): (cli.EXIT_UNDECIDED, {
        "numrange_sweep.csv":
            "55477d6d7d37ca729a88dae89e0f8ac6eea22154b5c6fab74978dab9f8b9cca6",
        "occupation.csv":
            "04a0a8c79a108b07ee69d95a10ef39568d7c443dd9b737454be49a5065b4d5b5",
        "spectrum.csv":
            "448b0700936262bfde9b10ab8dec940b8fd121aee5468ed84cf0abd70d53bfb5",
        "spectrum.json":
            "04b3e0f196425acd46810b0d04db876371b0cb51f70a94a403c77e8323dd2fb2",
        "stdout":
            "5edd3c56e86bd252a18333b7024c8bedfdf181536efb852199fa35d32dc04c43",
        "summary.json":
            "ae011cf82457ff774fb11457eb565dab0654a2556c58a983f02d35ff69fa07ad",
    }),
    ("rect", "verify"): (cli.EXIT_PASS, {
        "stdout":
            "df685b3553a119095a48f594957a84017a18f68b99f11588d0bc42a14149bc74",
    }),
    ("square_dirac", "run"): (cli.EXIT_PASS, {
        "spectrum.csv":
            "e41a4364cccff8fdd21b20eaed664710413f93612d743c6082f0726fbd05abbf",
        "spectrum.json":
            "eb0ce740c380241555fe6efa33537f299245126dda0ffc635ca2d9808e2dadd3",
        "stdout":
            "a798ee1b2bdda74258e3a2d0784556ff2b44be734dec665b60080228bc0fd045",
        "summary.json":
            "742fb4b952563304042ef56ccc62e5f45d265a2644348ac06fd60fb8e6128489",
    }),
    # adjoint_checks is inapplicable to a measure with no L2 density: exit 3
    ("square_dirac", "verify"): (cli.EXIT_UNDECIDED, {
        "stdout":
            "49f0e48934237e92cb66903a55b4363114ad028b58d0cd5a0d2994a91ba4d03c",
    }),
}


def output_digests(tmp_path, capsys, name, command):
    path = write_config(tmp_path, OUTPUT_CONFIGS[name])
    out = tmp_path / command
    code = cli.main([command, path, "--out", str(out)])
    # verify writes no file, and so makes no directory
    written = sorted(out.iterdir()) if out.exists() else []
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in written}
    digests["stdout"] = hashlib.sha256(
        capsys.readouterr().out.encode()).hexdigest()
    return code, digests


@pytest.mark.parametrize("name", ["disk", "rect"])
def test_csv_numbers_parse_as_floats(tmp_path, name):
    # every number in the CSV outputs is a plain float literal; rectangle
    # occupation cells are written "(x;y),(x;y)"
    path = write_config(tmp_path, OUTPUT_CONFIGS[name])
    cli.main(["run", path, "--out", str(tmp_path)])
    written = [f for f in ("occupation.csv", "enclosure_curves.csv",
                           "numrange_sweep.csv") if (tmp_path / f).exists()]
    assert len(written) == (3 if name == "disk" else 2)
    for f in written:
        rows = (tmp_path / f).read_text().splitlines()[1:]
        assert rows, f
        for row in rows:
            for field in row.split(","):
                for number in field.strip("()").split(";"):
                    float(number)


@pytest.mark.parametrize("name, command", sorted(PINNED_OUTPUT))
def test_pinned_cli_output(tmp_path, capsys, name, command):
    # refactors must leave every byte the CLI writes unchanged
    assert output_digests(tmp_path, capsys, name, command) \
        == PINNED_OUTPUT[name, command]


# theorem task -> the name of its row in verify, at k = 2
THEOREM_ROWS = {"enclosure_thm1": "halfplane_exclusion[k=2]",
                "enclosure_thm2": "interlacing[k=2]",
                "enclosure_thm3": "nested_enclosure",
                "prop_real": "first_eigenvalue_bound"}
RECT_3_BY_3_5 = dict(DISK_SMALL, k=2, tasks=list(THEOREM_ROWS),
                     domain={"kind": "rectangle", "side_x": 3.0,
                             "side_y": 3.5})


@pytest.mark.parametrize("cfg, verdicts, codes", [
    (dict(DISK_SMALL, k=2, tasks=list(THEOREM_ROWS),
          domain=OUTPUT_CONFIGS["rect"]["domain"],
          measure=OUTPUT_CONFIGS["rect"]["measure"]),
     ["pass"] * 3, (cli.EXIT_UNDECIDED, cli.EXIT_PASS)),
    (dict(RECT_3_BY_3_5, measure={"variant": "perturbed",
                                  "base": "ground_state",
                                  "v_modes": {"1": 0.3}, "v_scale": 0.01}),
     ["pass"], (cli.EXIT_UNDECIDED, cli.EXIT_PASS)),
    (dict(RECT_3_BY_3_5, measure={"variant": "perturbed", "base": "uniform",
                                  "v_modes": {"0": 0.5, "1": 0.5},
                                  "v_scale": 0.2}),
     ["inapplicable"] * 3, (cli.EXIT_UNDECIDED, cli.EXIT_UNDECIDED)),
], ids=["rect", "ground_state", "inadmissible"])
def test_run_and_verify_agree(tmp_path, cfg, verdicts, codes):
    # each theorem that verify checks has the verdict and detail in verify
    # that its task has in run
    rows = {}
    for command, check in (("run", cli.run_experiment),
                           ("verify", cli.verify_experiment)):
        rows[command] = check(cli.build_experiment(cfg, str(tmp_path)))
        assert cli._exit_code(rows[command]) == codes[len(rows) - 1]
    run, verify = ({r["name"]: (r["verdict"], r["detail"]) for r in rows[c]}
                   for c in ("run", "verify"))
    checked = [task for task, name in THEOREM_ROWS.items() if name in verify]
    assert [run[task][0] for task in checked] == verdicts
    assert [run[task] for task in checked] \
        == [verify[THEOREM_ROWS[task]] for task in checked]
    if "inapplicable" in verdicts:
        # one wording for a failed admissibility gate
        (detail,) = {run[task][1] for task in checked}
        assert detail.startswith("admissibility failed: admissibility[k=2] "
                                 "fail: |v|=")


@pytest.mark.parametrize("k, detail", [
    (1, "needs the level-2 hypothesis; the certificate is at level 1"),
    (2, "admissibility failed: admissibility[k=2] fail: |v|=1.4199e-01 "
        "threshold=8.3382e-02 margin=-5.8604e-02"),
])
def test_prop_real_needs_the_level_2_hypothesis(tmp_path, k, detail):
    # |v| = 0.142 meets the level-1 threshold but not the level-2 one, so
    # neither certificate gives prop_real its hypothesis: run and verify
    # both read inapplicable
    cfg = {"version": 1,
           "domain": {"kind": "rectangle", "side_x": 3.0, "side_y": 3.5},
           "measure": {"variant": "perturbed", "base": "uniform",
                       "v_modes": {"0": 0.7, "1": 0.4, "4": 0.5},
                       "v_scale": 0.3},
           "cutoff": 300.0, "k": k, "tasks": ["enclosure_thm2", "prop_real"]}
    rows = {}
    for command, check in (("run", cli.run_experiment),
                           ("verify", cli.verify_experiment)):
        rows[command] = {r["name"]: (r["verdict"], r["detail"])
                         for r in check(cli.build_experiment(cfg, str(tmp_path)))}
    assert rows["run"]["prop_real"] == ("inapplicable", detail)
    assert rows["verify"]["first_eigenvalue_bound"] == ("inapplicable", detail)
    # at level 1 interlacing has no gap to check, at level 2 no admissible v
    assert rows["run"]["enclosure_thm2"] == (
        "inapplicable", "no gap lies below the first active pole" if k == 1
        else detail)
