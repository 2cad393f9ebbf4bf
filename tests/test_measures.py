import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from jumpspectra import measures
from jumpspectra.cli import make_mode_perturbation
from jumpspectra.errors import (MassDeficitError, NegativeDensityError,
                                UnsupportedMeasureError)

J01 = 2.404825557695773


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
    w = measures.ground_state_density(disk_basis)
    rule = disk_basis.quadrature
    wv = w(rule.x, rule.y)
    quad = disk_basis.mode_matrix() @ (rule.w * wv)
    mom = measures.compute_moments(measures.GroundStateMeasure(), disk_basis)
    assert np.abs(quad - mom.moments).max() < 1e-10


def test_dirac_moments(disk_basis):
    mom = measures.compute_moments(measures.DiracMeasure(0.0, 0.0), disk_basis)
    expected = 1.0 / (math.sqrt(math.pi) * jv(1, J01))
    assert mom.moments[0] == pytest.approx(expected, rel=1e-12)
    assert mom.moments[0] == pytest.approx(1.0866, abs=2e-4)
    assert mom.l2_density_norm is None
    assert mom.heuristic_tail


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
    vmom = disk_basis.mode_matrix() @ (rule.w * v(rule.x, rule.y))
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
