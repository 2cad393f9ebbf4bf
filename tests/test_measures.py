import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from jumpspectra import geometry, measures, secular
from jumpspectra.cli import make_mode_perturbation
from jumpspectra.errors import (MassDeficitError, MeasureError,
                                NegativeDensityError, UnsupportedMeasureError)

J01 = 2.404825557695773


def mode_matrix(basis):
    """All mode values at all quadrature nodes; (n_modes, n_nodes)."""
    rule = basis.quadrature
    return basis.mode_values(slice(None), rule.x, rule.y)


def test_uniform_moments(disk_basis):
    mom = measures.compute_moments(measures.UniformMeasure(), disk_basis)
    assert np.allclose(mom.moments,
                       disk_basis.one_coeffs / disk_basis.domain.area)
    assert mom.moments[0] == pytest.approx(0.4692, abs=1e-4)
    assert mom.l2_density_norm == pytest.approx(math.pi ** -0.5)


def test_ground_state_moments(disk_basis):
    mom = measures.compute_moments(measures.GroundStateMeasure(), disk_basis)
    assert mom.moments[0] == pytest.approx(1.0 / disk_basis.one_coeffs[0])
    assert np.abs(mom.moments[1:]).max() < 1e-10


def test_ground_state_moment_against_quadrature(disk_basis):
    # the closed form delta_{n1}/(chi_1,1) agrees with explicit quadrature
    w = measures.GroundStateMeasure().density(disk_basis)
    rule = disk_basis.quadrature
    wv = w(rule.x, rule.y)
    quad = mode_matrix(disk_basis) @ (rule.w * wv)
    mom = measures.compute_moments(measures.GroundStateMeasure(), disk_basis)
    assert np.abs(quad - mom.moments).max() < 1e-10


def test_dirac_moments(disk_basis):
    mom = measures.compute_moments(measures.DiracMeasure(0.0, 0.0), disk_basis)
    expected = 1.0 / (math.sqrt(math.pi) * jv(1, J01))
    assert mom.moments[0] == pytest.approx(expected, rel=1e-12)
    assert mom.moments[0] == pytest.approx(1.0866, abs=2e-4)
    assert mom.l2_density_norm is None


def test_dirac_near_boundary_rejected(disk_basis):
    with pytest.raises(ValueError):
        measures.compute_moments(measures.DiracMeasure(0.9999999, 0.0),
                                 disk_basis)


def test_circle_moments(disk_basis):
    mom = measures.compute_moments(measures.CircleMeasure(0.5), disk_basis)
    angular = [i for i, label in enumerate(disk_basis.labels) if label[0] != 0]
    assert np.abs(mom.moments[angular]).max() < 1e-14
    closed = jv(0, J01 * 0.5) / (math.sqrt(math.pi) * jv(1, J01))
    assert mom.moments[0] == pytest.approx(closed, rel=1e-12)


def test_circle_on_rectangle_rejected(rect_basis):
    with pytest.raises(UnsupportedMeasureError):
        measures.compute_moments(measures.CircleMeasure(0.5), rect_basis)


def test_circle_bad_radius(disk_basis):
    with pytest.raises(ValueError):
        measures.compute_moments(measures.CircleMeasure(1.5), disk_basis)


def test_density_mass_guard(disk_basis):
    bad = measures.DensityMeasure(lambda x, y: np.full(np.shape(x), 2.0 / math.pi))
    with pytest.raises(MassDeficitError):
        measures.compute_moments(bad, disk_basis)


def test_density_negativity_guard(disk_basis):
    bad = measures.DensityMeasure(lambda x, y: 0.5 - x)
    with pytest.raises(NegativeDensityError):
        measures.compute_moments(bad, disk_basis)


def test_density_matches_uniform(disk_basis):
    w = measures.DensityMeasure(
        lambda x, y: np.full(np.shape(x), 1.0 / math.pi))
    mom = measures.compute_moments(w, disk_basis)
    uni = measures.compute_moments(measures.UniformMeasure(), disk_basis)
    assert np.abs(mom.moments - uni.moments).max() < 1e-10


def test_perturbed_zero_mean_guard(disk_basis):
    # v = 0.01 chi_1 has the mean 0.01 (1, chi_1)
    v = np.zeros(len(disk_basis))
    v[0] = 0.01
    bad = measures.PerturbedMeasure(measures.UniformMeasure(), v)
    with pytest.raises(MassDeficitError):
        measures.compute_moments(bad, disk_basis)
    assert not measures.check_hypothesis_v(bad, disk_basis, 1).zero_mean_ok


def test_perturbed_coefficient_count_guard(disk_basis, rect_basis):
    # a coefficient vector belongs to the basis it was made on
    v = make_mode_perturbation(rect_basis, {0: 0.7, 1: 0.4}, 0.02)
    bad = measures.PerturbedMeasure(measures.UniformMeasure(), v)
    with pytest.raises(MeasureError):
        measures.compute_moments(bad, disk_basis)
    with pytest.raises(MeasureError):
        measures.check_hypothesis_v(bad, disk_basis, 1)
    column = measures.PerturbedMeasure(measures.UniformMeasure(),
                                       np.zeros((len(disk_basis), 1)))
    with pytest.raises(MeasureError):
        measures.compute_moments(column, disk_basis)


@settings(max_examples=12, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_moment_linearity(disk_basis, rect_basis, coefs):
    # the coefficient table against rule quadrature of the pointwise
    # density, on both domains and both bases: moments(base + v) =
    # moments(base) + (chi_n, v), the mean of v, |v| and the density's
    # L2 norm
    for basis, modes in ((disk_basis, [0, 5, 9]), (rect_basis, [0, 1, 4])):
        v = make_mode_perturbation(basis, dict(zip(modes, coefs)), 0.02)
        rule = basis.quadrature
        live = np.flatnonzero(v)
        vvals = v[live] @ basis.mode_values(live, rule.x, rule.y)
        for base in (measures.UniformMeasure(), measures.GroundStateMeasure()):
            spec = measures.PerturbedMeasure(base, v)
            mom = measures.compute_moments(spec, basis)
            cert = measures.check_hypothesis_v(spec, basis, 1)
            w = base.density(basis)(rule.x, rule.y) + vvals
            quad = {"moments": basis.domain.moments(w, basis),
                    "mean": rule.integrate(vvals).real,
                    "v_norm": np.sqrt(rule.integrate(vvals * vvals).real),
                    "l2": np.sqrt(rule.integrate(w * w).real)}
            table = {"moments": mom.moments, "mean": v @ basis.one_coeffs,
                     "v_norm": cert.v_norm, "l2": mom.l2_density_norm}
            for key in quad:
                assert np.abs(table[key] - quad[key]).max() < 1e-13, key


def test_measure_integral_variants(disk_basis):
    f = lambda x, y: 1.0 - (x ** 2 + y ** 2)
    val_u = measures.measure_integral(measures.UniformMeasure(), disk_basis, f)
    assert val_u == pytest.approx(0.5, abs=1e-10)
    val_d = measures.measure_integral(measures.DiracMeasure(0.5, 0.0),
                                      disk_basis, f)
    assert val_d == pytest.approx(0.75)
    val_c = measures.measure_integral(measures.CircleMeasure(0.5),
                                      disk_basis, f)
    assert val_c == pytest.approx(0.75, rel=1e-12)


# SHA-256 of the moments, the L2 norms and the measure integrals of both
# torsion anchors, recorded before each variant owned its integral and moments;
# the disk density and perturbed cases again once the disk moments stopped
# depending on the BLAS thread count, and the perturbed cases once more when
# their moments and norms became exact sums over the coefficients; the disk
# density once more when its moments were reduced on the rule's factors, and
# the circle when its moments became a closed form
PINNED = {
    "disk-uniform":
        "2fbb28d619956fcbda80850c973f5c9225afdd21184bad9796fa3dc812236136",
    "disk-ground_state":
        "b37324bc526442fe62174604f71b58dd2867f51ac22c7a552b8336ed51e024c2",
    "disk-density":
        "a82dcc5183d007077ea13e03a02ef2a57d57caee70d8cc8716d066a0ac70326d",
    "disk-dirac":
        "c6647c5fe965d8c9ae7e3e2b3b87df19a2de0932b9695458253995568e498ec8",
    "disk-circle":
        "34459bc1ee5d28a5285332ec19a37c52a5becaca5792e789cdc4ceb9b8a66869",
    "disk-perturbed_uniform":
        "b228cda110191c4104c7c78e8dcd8c18d4d74153105de6508b32d3039a06a20b",
    "disk-perturbed_ground_state":
        "b8a6601b04ccf9c34eaeef11b6fecae541670837b3f2d584670c5a873fdbb5ec",
    "rect-uniform":
        "acec04c77cf73f8148220055aaa874b94dddcca99dcc5183371d7f4168fb05e0",
    "rect-ground_state":
        "bc6a90419862afdb9d0731f62f57ce5ec0464337e50d9133ccdcc32ac7e9822a",
    "rect-density":
        "b32492fabf502c0ccab9170b49da6c1b6466f58cc2b5818565f8f5a680dfc63c",
    "rect-dirac":
        "7fa609cc3be9a437b370c5b092ae39dfc7898c238fae6d25e99d293922e6f07a",
    "rect-perturbed_uniform":
        "a7d95af47189b535495318c1b18d98b1df49c40dad10c0f6d170b202ba7b83cd",
    "rect-perturbed_ground_state":
        "3208cbdf7baa0f38e41acdb78ca31f3a55c29474f1954a79370e926d394d9cd5",
}


def pinned_spec(name, basis):
    """Restart measure of a "domain-variant" case on ``basis``."""
    disk = name.startswith("disk")
    area = basis.domain.area
    return {
        "uniform": measures.UniformMeasure(),
        "ground_state": measures.GroundStateMeasure(),
        "density": measures.DensityMeasure(
            (lambda x, y: (1.0 + 0.5 * x) / area) if disk
            else (lambda x, y: (1.0 + 0.5 * np.cos(x)) / area)),
        "dirac": measures.DiracMeasure(*((0.3, -0.2) if disk else (1.0, 2.0))),
        "circle": measures.CircleMeasure(0.5),
        "perturbed_uniform": measures.PerturbedMeasure(
            measures.UniformMeasure(), make_mode_perturbation(
                basis, {0: 0.7, 1: 0.4, 4: 0.5}, 0.02)),
        "perturbed_ground_state": measures.PerturbedMeasure(
            measures.GroundStateMeasure(), make_mode_perturbation(
                basis, {0: 0.5, 9: 0.5}, 0.05)),
    }[name.split("-")[1]]


def measure_digest(spec, basis):
    mom = measures.compute_moments(spec, basis)
    h = hashlib.sha256(
        np.ascontiguousarray(mom.moments, dtype=np.float64).tobytes())
    anchors = [measures.measure_integral(spec, basis, g(basis.domain))
               for g in (geometry.torsion_function, geometry.torsion_second)]
    v_norm = (measures.check_hypothesis_v(spec, basis, 1).v_norm
              if isinstance(spec, measures.PerturbedMeasure) else None)
    h.update(repr((mom.l2_density_norm, v_norm,
                   mom.l2_density_norm is None, *anchors)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_measure_pinned_digest(name, disk_basis, rect_basis):
    basis = disk_basis if name.startswith("disk") else rect_basis
    assert measure_digest(pinned_spec(name, basis), basis) == PINNED[name]


CLOSED_FORM_ANCHORS = ("uniform", "ground_state", "perturbed_uniform",
                       "perturbed_ground_state")


@pytest.mark.parametrize("name", [f"{d}-{m}" for d in ("disk", "rect")
                                  for m in CLOSED_FORM_ANCHORS])
def test_closed_form_anchors_match_quadrature(name, disk_basis, rect_basis):
    # the torsion callables on the node rule are the reference
    basis = disk_basis if name.startswith("disk") else rect_basis
    spec = pinned_spec(name, basis)
    quad = [measures.measure_integral(spec, basis, g(basis.domain))
            for g in (geometry.torsion_function, geometry.torsion_second)]
    for exact, ref in zip(spec.anchors(basis), quad):
        assert abs(exact - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_anchors_integrate_only_without_closed_form(name, disk_basis,
                                                    rect_basis, monkeypatch):
    # the uniform, ground-state and perturbed anchors are finite sums; the
    # density, point-mass and circle anchors integrate the torsion callables
    # against the measure, once each
    basis = disk_basis if name.startswith("disk") else rect_basis
    spec = pinned_spec(name, basis)
    mom = measures.compute_moments(spec, basis)
    closed = name.split("-")[1] in CLOSED_FORM_ANCHORS
    calls = []

    def integral(*args):
        if closed:
            raise AssertionError(f"{name}: closed-form anchors integrated")
        calls.append(args)
        return 0.0

    monkeypatch.setattr(type(spec), "integral", integral)
    secular.build_secular_series(basis, mom)
    assert len(calls) == (0 if closed else 2)


def test_density_from_grid(disk_basis):
    grid = np.full((33, 33), 1.0 / math.pi)
    w = measures.density_from_grid(grid, disk_basis.domain)
    spec = measures.DensityMeasure(w)
    mom = measures.compute_moments(spec, disk_basis)
    uni = measures.compute_moments(measures.UniformMeasure(), disk_basis)
    assert np.abs(mom.moments - uni.moments).max() < 1e-9


# --- admissibility certificates ---------------------------------------------

def test_admissibility_v_zero(disk_basis):
    spec = measures.PerturbedMeasure(
        measures.UniformMeasure(), np.zeros(len(disk_basis)))
    cert = measures.check_hypothesis_v(spec, disk_basis, 1)
    assert cert.passed
    assert cert.margin == pytest.approx(cert.threshold)
    assert cert.threshold == pytest.approx(
        disk_basis.one_coeffs[0] / math.pi, rel=1e-12)
    assert cert.threshold == pytest.approx(0.4692, abs=1e-4)


def test_admissibility_disk_k2_literal_zero(disk_basis):
    # the second raw eigenvalue is an angular mode: the literal smallness
    # threshold degenerates to zero, so only k = 1 is literally satisfiable
    spec = measures.PerturbedMeasure(
        measures.UniformMeasure(), np.zeros(len(disk_basis)))
    cert = measures.check_hypothesis_v(spec, disk_basis, 2)
    assert cert.threshold > 0.0           # active-pole reading stays usable
    assert cert.threshold == pytest.approx(
        disk_basis.one_coeffs[5] / math.pi, rel=1e-12)


def test_admissibility_ground_state(disk_basis):
    v = make_mode_perturbation(disk_basis, {0: 0.5, 9: 0.5}, 0.05)
    spec = measures.PerturbedMeasure(measures.GroundStateMeasure(), v)
    cert = measures.check_hypothesis_v(spec, disk_basis, 1)
    assert cert.base_kind == "ground_state"
    assert cert.threshold == pytest.approx(math.pi ** -0.5)
    assert cert.passed


def test_admissibility_rejects_large_v(rect_basis):
    v = make_mode_perturbation(rect_basis, {0: 0.8, 1: 0.3, 4: 0.4}, 0.6)
    spec = measures.PerturbedMeasure(measures.UniformMeasure(), v)
    cert = measures.check_hypothesis_v(spec, rect_basis, 2)
    assert not cert.passed
    assert cert.margin < 0


# the disk density's moments go through Disk.moments' node quadrature, the
# perturbations' moments and norms are sums over their coefficients, and the
# rectangle's density and point-mass anchors integrate the torsion on the
# nodes
THREAD_CASES = ("disk-density", "disk-perturbed_ground_state",
                "disk-perturbed_uniform", "rect-density", "rect-dirac")


def test_disk_moments_independent_of_blas_threads():
    """Disk moments are a numpy reduction, not a BLAS matrix-vector product
    whose summation order follows the thread count: the pinned digests come
    out bit for bit at one and at two OpenBLAS threads, as do those of the
    rectangle's integrated torsion anchors."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(measures.__file__)))
    script = ("import json, math\nfrom jumpspectra import geometry\n"
              "from conftest import RATIO\n"
              "from test_measures import measure_digest, pinned_spec\n"
              "bases = {'disk': geometry.unit_disk(), 'rect': geometry."
              "rectangle(math.pi, RATIO * math.pi)}\n"
              "bases = {k: geometry.build_basis(d, 2000.0)"
              " for k, d in bases.items()}\n"
              "print(json.dumps([measure_digest(pinned_spec(n, b), b)"
              " for n in %r for b in [bases[n.split('-')[0]]]]))"
              % (THREAD_CASES,))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, tests, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(json.loads(done.stdout.splitlines()[-1]))
    assert digests[0] == digests[1] == [PINNED[n] for n in THREAD_CASES]
