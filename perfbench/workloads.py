"""Seeded workload configs for the CLI benchmark.

A workload is one or more experiment configs, each of which turns
``--seed`` into one config file; the program only ever sees the generated
files.  Every config draws from its own generator seeded with ``--seed``,
so a config is the same file whichever workload it belongs to.  ``tiny``
shrinks a config for the self-test and the negative control: cutoff 300,
the default window and a few hundred walk steps.
"""

import math
from dataclasses import dataclass

import numpy as np

RATIO = 1.2337                 # rectangle side ratio, as in the test suite
CUTOFF = 2000.0
TINY_CUTOFF = 300.0
DEFAULT_WINDOW = [-1.0, 60.0, -15.0, 15.0]
PERTURBED_MODES = (0, 1, 4)
V_SCALE = 0.02
MAX_DRAWS = 1000


@dataclass(frozen=True)
class Config:
    name: str                  # also names its file in reference/
    expected_exit: dict        # op kind -> allowed exit codes
    build: object              # (rng, tiny) -> config dict


def _base(domain, measure, tasks, tiny, window=DEFAULT_WINDOW):
    return {
        "version": 1,
        "domain": domain,
        "measure": measure,
        "cutoff": TINY_CUTOFF if tiny else CUTOFF,
        "window": list(DEFAULT_WINDOW if tiny else window),
        "k": 2,
        "tasks": list(tasks),
        "seed": 20240817,
    }


def _admissible(coefs, side_x, side_y, cutoff):
    """True when ``check_hypothesis_v`` accepts the perturbation."""
    from jumpspectra import cli, geometry, measures
    basis = geometry.build_basis(geometry.rectangle(side_x, side_y), cutoff)
    v = cli.make_mode_perturbation(
        basis, {str(m): c for m, c in zip(PERTURBED_MODES, coefs)}, V_SCALE)
    spec = measures.PerturbedMeasure(measures.UniformMeasure(), v)
    return measures.check_hypothesis_v(spec, basis, 2).passed


def _rect_certify(rng, tiny):
    """Torsion anchors and layer quadrature dominate; no field, no walk."""
    side_x, side_y = math.pi, RATIO * math.pi
    cutoff = TINY_CUTOFF if tiny else CUTOFF
    for _ in range(MAX_DRAWS):
        coefs = [float(c) for c in rng.uniform(-1.0, 1.0, len(PERTURBED_MODES))]
        if _admissible(coefs, side_x, side_y, cutoff):
            break
    else:
        raise RuntimeError(f"no admissible perturbation in {MAX_DRAWS} draws")
    measure = {"variant": "perturbed", "base": "uniform",
               "v_modes": {str(m): c for m, c in zip(PERTURBED_MODES, coefs)},
               "v_scale": V_SCALE}
    return _base({"kind": "rectangle", "side_x": side_x, "side_y": side_y},
                 measure, ["spectrum", "enclosure_thm1", "enclosure_thm2",
                           "prop_real", "numrange"], tiny)


def _disk_point_mass(rng, tiny):
    """Nonreal roots, a singular measure and the figure-1 field; the torsion
    anchors are closed form."""
    r = 0.05 * math.sqrt(float(rng.uniform()))
    theta = 2.0 * math.pi * float(rng.uniform())
    measure = {"variant": "dirac", "x0": r * math.cos(theta),
               "y0": r * math.sin(theta)}
    return _base({"kind": "disk"}, measure, ["spectrum", "numrange", "figure1"],
                 tiny, window=[-1.0, 200.0, -60.0, 60.0])


def _disk_walk(rng, tiny):
    """The walk's step loop and restarts dominate; secular and enclosure
    layers are nearly idle."""
    cfg = _base({"kind": "disk"}, {"variant": "ground_state"},
                ["spectrum", "simulate"], tiny)
    cfg["walk"] = {
        "step_dt": 4e-4,
        "n_steps": 300 if tiny else 20_000,
        "n_paths": 1000,
        "seed": int(rng.integers(1, 2 ** 62)),
        # a few hundred steps cannot mix, so the tiny run only checks plumbing
        "l1_threshold": 0.5 if tiny else 0.02,
    }
    return cfg


CONFIGS = {c.name: c for c in (
    Config("rect_certify", {"run": {0}, "verify": {0}}, _rect_certify),
    # a point mass has no L2 density, so verify's adjoint checks are
    # inapplicable (exit 3)
    Config("disk_point_mass", {"run": {0, 3}, "verify": {0, 3}},
           _disk_point_mass),
    Config("disk_walk", {"run": {0}, "verify": {0}}, _disk_walk),
)}

# workload -> its configs, in the order each round runs them
WORKLOADS = {
    "rect_certify": ("rect_certify",),
    "disk_mass_walk": ("disk_point_mass", "disk_walk"),
}


def make_config(name, seed, tiny=False):
    """Config ``name`` drawn from ``seed`` (same seed, same file)."""
    return CONFIGS[name].build(np.random.default_rng(seed), tiny)
