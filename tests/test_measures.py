import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from jumpspectra import geometry, measures
from jumpspectra.cli import make_mode_perturbation
from jumpspectra.errors import (MassDeficitError, NegativeDensityError,
                                UnsupportedMeasureError)

J01 = 2.404825557695773


def mode_matrix(basis):
    """All mode values at all quadrature nodes; (n_modes, n_nodes)."""
    return basis.domain.mode_rows(basis.modes, basis.quadrature)


def test_uniform_moments(disk_basis):
    mom = measures.compute_moments(measures.UniformMeasure(), disk_basis)
    assert np.allclose(mom.moments,
                       disk_basis.one_coeffs / disk_basis.domain.area)
    assert mom.moments[0] == pytest.approx(0.4692, abs=1e-4)
    assert mom.l2_density_norm == pytest.approx(math.pi ** -0.5)


def test_ground_state_moments(disk_basis):
    mom = measures.compute_moments(measures.GroundStateMeasure(), disk_basis)
    assert mom.moments[0] == pytest.approx(1.0 / disk_basis.modes[0].one_coeff)
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
    angular = [i for i, m in enumerate(disk_basis.modes) if m.label[0] != 0]
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
    bad = measures.PerturbedMeasure(measures.UniformMeasure(),
                                    lambda x, y: np.full(np.shape(x), 0.01))
    with pytest.raises(MassDeficitError):
        measures.compute_moments(bad, disk_basis)


@settings(max_examples=12, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_moment_linearity(disk_basis, coefs):
    # moments(base + v) = moments(base) + (chi_n, v)
    v = make_mode_perturbation(disk_basis, dict(zip([0, 5, 9], coefs)), 0.02)
    spec = measures.PerturbedMeasure(measures.UniformMeasure(), v)
    mom = measures.compute_moments(spec, disk_basis)
    base = measures.compute_moments(measures.UniformMeasure(), disk_basis)
    rule = disk_basis.quadrature
    vmom = mode_matrix(disk_basis) @ (rule.w * v(rule.x, rule.y))
    assert np.abs(mom.moments - base.moments - vmom).max() < 1e-10


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
# torsion anchors, recorded before each variant owned its integral and moments
PINNED = {
    "disk-uniform":
        "2fbb28d619956fcbda80850c973f5c9225afdd21184bad9796fa3dc812236136",
    "disk-ground_state":
        "b37324bc526442fe62174604f71b58dd2867f51ac22c7a552b8336ed51e024c2",
    "disk-density":
        "0636e48e6dfa9ede74b01944ae706cf71b3fd55d4846cde10c8e6212430ee262",
    "disk-dirac":
        "c6647c5fe965d8c9ae7e3e2b3b87df19a2de0932b9695458253995568e498ec8",
    "disk-circle":
        "582959e13be2effad389a76f188f90a47a0848a0ddb9594bf15040451a2fde74",
    "disk-perturbed_uniform":
        "8bdf82c0f4c492a6a09834e71aec1d71ab850cc8aea24ab07e910a707f4a6b15",
    "disk-perturbed_ground_state":
        "072b609b3bf8817f06d9ab742ff8eb048f2349a7b868642145b6dcc2461d9153",
    "rect-uniform":
        "acec04c77cf73f8148220055aaa874b94dddcca99dcc5183371d7f4168fb05e0",
    "rect-ground_state":
        "bc6a90419862afdb9d0731f62f57ce5ec0464337e50d9133ccdcc32ac7e9822a",
    "rect-density":
        "b32492fabf502c0ccab9170b49da6c1b6466f58cc2b5818565f8f5a680dfc63c",
    "rect-dirac":
        "7fa609cc3be9a437b370c5b092ae39dfc7898c238fae6d25e99d293922e6f07a",
    "rect-perturbed_uniform":
        "facb9faced666feb9e821883fe40acd5332bda9b74025cacb12bf49b12b9c341",
    "rect-perturbed_ground_state":
        "90255b0f1c37cb54fef9d809abe11e4eeef2c3b793397f1d2c35e359e19a5a85",
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
    h.update(repr((mom.l2_density_norm, mom.v_l2_norm,
                   mom.l2_density_norm is None, *anchors)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_measure_pinned_digest(name, disk_basis, rect_basis):
    basis = disk_basis if name.startswith("disk") else rect_basis
    assert measure_digest(pinned_spec(name, basis), basis) == PINNED[name]


def test_boundary_mass_validation(disk_basis):
    with pytest.raises(ValueError):
        measures.compute_moments(measures.UniformMeasure(boundary_mass=1.0),
                                 disk_basis)
    mom = measures.compute_moments(measures.UniformMeasure(boundary_mass=0.3),
                                   disk_basis)
    # interior part is already normalised: reduction is the identity
    uni = measures.compute_moments(measures.UniformMeasure(), disk_basis)
    assert np.allclose(mom.moments, uni.moments)


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
        measures.UniformMeasure(), lambda x, y: np.zeros(np.shape(x)))
    cert = measures.check_hypothesis_v(spec, disk_basis, 1)
    assert cert.passed and cert.literal_passed
    assert cert.margin == pytest.approx(cert.threshold)
    assert cert.threshold == pytest.approx(
        disk_basis.modes[0].one_coeff / math.pi, rel=1e-12)
    assert cert.threshold == pytest.approx(0.4692, abs=1e-4)


def test_admissibility_disk_k2_literal_zero(disk_basis):
    # the second raw eigenvalue is an angular mode: the literal smallness
    # threshold degenerates to zero, so only k = 1 is literally satisfiable
    spec = measures.PerturbedMeasure(
        measures.UniformMeasure(), lambda x, y: np.zeros(np.shape(x)))
    cert = measures.check_hypothesis_v(spec, disk_basis, 2)
    assert cert.threshold_literal == 0.0
    assert not cert.literal_passed
    assert cert.threshold > 0.0           # active-pole reading stays usable
    assert cert.threshold == pytest.approx(
        disk_basis.modes[5].one_coeff / math.pi, rel=1e-12)


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
