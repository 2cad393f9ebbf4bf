import math

import numpy as np
import pytest

from jumpspectra import geometry, measures, numrange as nr
from jumpspectra.errors import GeometryError


def test_profile_constraints():
    assert nr.profile(0.0) == 0.0
    assert nr.profile(1.0) == 0.0
    h = 1e-7
    assert (nr.profile(h) - nr.profile(0.0)) / h == pytest.approx(1.0, abs=1e-6)
    assert (nr.profile(1.0) - nr.profile(1.0 - h)) / h == pytest.approx(0.0, abs=1e-6)
    s = np.linspace(0, 1, 11)
    fd = (nr.profile(s + 1e-7) - nr.profile(s - 1e-7)) / 2e-7
    assert np.abs(fd - nr.profile_derivative(s)).max() < 1e-6


def sample(basis, spec, direction, eps):
    """The sweep's sample of one direction at one layer width."""
    return next(s for s in nr.sweep(basis, spec, [eps])
                if s.direction == direction)


def test_layer_overlap_guard(disk_basis_small):
    with pytest.raises(GeometryError):
        nr.sweep(disk_basis_small, measures.UniformMeasure(), [0.9])


@pytest.fixture(scope="module")
def disk_sweep(disk_basis_small):
    eps = np.logspace(-4, -2, 9)
    return nr.sweep(disk_basis_small, measures.UniformMeasure(), eps)


def test_quotient_leading_order(disk_basis_small):
    s = sample(disk_basis_small, measures.UniformMeasure(), 1.0, 1e-4)
    # perimeter/area = 2 on the unit disk: leading term 2/sqrt(eps) = 200
    assert s.quotient.real == pytest.approx(200.0, abs=1.0)
    assert abs(s.quotient.imag) < 1e-10
    si = sample(disk_basis_small, measures.UniformMeasure(), 1j, 1e-4)
    assert si.quotient.imag == pytest.approx(200.0, abs=1.0)
    assert abs(si.quotient.real) < 1.0


def test_norm_approaches_area(disk_basis_small):
    s = sample(disk_basis_small, measures.UniformMeasure(), 1.0, 1e-4)
    assert abs(s.norm_sq - math.pi) / math.pi < 0.02


def test_domain_mean_exact(disk_sweep):
    assert max(s.mean_defect for s in disk_sweep) < 1e-8


def test_b_eps_decreases(disk_sweep):
    for d in nr.DIRECTIONS:
        bs = [abs(s.b_eps) for s in disk_sweep if s.direction == d]
        eps = [s.epsilon for s in disk_sweep if s.direction == d]
        order = np.argsort(eps)
        sorted_bs = np.array(bs)[order]
        assert np.all(np.diff(sorted_bs) >= 0)      # smaller eps, smaller b


def test_blowup_fits(disk_sweep):
    for d in nr.DIRECTIONS:
        fit = nr.blowup_fit(disk_sweep, d)
        assert fit.slope == pytest.approx(-0.5, abs=0.05)
        assert fit.intercept == pytest.approx(math.log(2.0), abs=0.1)
        assert fit.r_squared > 0.999


def test_sign_flip_between_directions(disk_basis_small):
    plus = sample(disk_basis_small, measures.UniformMeasure(), 1.0, 1e-3)
    minus = sample(disk_basis_small, measures.UniformMeasure(), -1.0, 1e-3)
    assert plus.quotient.real > 0 > minus.quotient.real
    assert plus.boundary_term == pytest.approx(-minus.boundary_term)


def test_four_direction_escape(disk_basis_small):
    # for every radius R there are probes beyond R in all four directions
    R = 500.0
    for s in nr.sweep(disk_basis_small, measures.UniformMeasure(), [1e-5]):
        assert (s.quotient * np.conj(s.direction)).real > R


def test_rectangle_probe_runs():
    basis = geometry.build_basis(geometry.rectangle(math.pi, math.pi), 100.0)
    s = sample(basis, measures.UniformMeasure(), 1.0, 1e-3)
    beta_over_area = (4 * math.pi) / math.pi ** 2
    assert s.quotient.real == pytest.approx(
        beta_over_area / math.sqrt(1e-3), rel=0.02)


def test_ground_state_measure_probe(disk_basis_small):
    s = sample(disk_basis_small, measures.GroundStateMeasure(), 1.0, 1e-4)
    assert s.quotient.real == pytest.approx(200.0, abs=2.0)
    assert s.mean_defect < 1e-8


def test_sweep_csv(disk_sweep):
    text = nr.sweep_to_csv(disk_sweep)
    lines = text.strip().split("\n")
    assert lines[0] == "epsilon,direction_re,direction_im,re,im,norm"
    assert len(lines) == len(disk_sweep) + 1


@pytest.mark.parametrize("spec", [measures.UniformMeasure(),
                                  measures.DiracMeasure(0.1, 0.0)])
def test_sweep_forms_each_quotient_through_rayleigh_probe(
        monkeypatch, disk_basis_small, spec):
    # one call per direction and layer width, looked up by the module name,
    # so that a wrapper bound to that name counts every quotient
    calls = []
    probe = nr.rayleigh_probe

    def counted(*args):
        calls.append(args[0])
        return probe(*args)

    monkeypatch.setattr(nr, "rayleigh_probe", counted)
    epsilons = [1e-4, 1e-3, 3e-3]
    samples = nr.sweep(disk_basis_small, spec, epsilons)
    assert len(calls) == 4 * len(epsilons)
    assert [(s.direction, s.epsilon) for s in samples] == [
        (d, e) for d in nr.DIRECTIONS for e in epsilons]
