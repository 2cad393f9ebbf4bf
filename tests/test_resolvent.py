import numpy as np
import pytest

from jumpspectra import measures, resolvent as rv, secular
from jumpspectra.errors import (DomainMembershipError, PoleProximityError,
                                ResolventDomainError, UnsupportedMeasureError)
from jumpspectra.geometry import BasisSet
from jumpspectra.resolvent import SpectralVector, flatten
from jumpspectra.secular import SecularSeries

# test-only helpers: pointwise evaluation by resummation and the adjoint
# generator, used to cross-check the resolvent identities below


def resum_pointwise(vec: SpectralVector, basis: BasisSet, x, y,
                    average_levels: int = 0):
    """Evaluate a coefficient vector at points by mode resummation.

    With ``average_levels > 0`` the partial sums over eigenvalue clusters are
    repeatedly pairwise-averaged, which accelerates the alternating tails
    typical of pointwise Dirichlet-series data (plain truncation converges
    only algebraically there).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    acc = np.full(x.shape, complex(vec.constant))
    partials = []
    for start, size in zip(basis.cluster_starts, basis.cluster_sizes):
        live = [i for i in range(start, start + size) if vec.coeffs[i] != 0]
        if not live:
            continue
        for i in live:
            acc = acc + vec.coeffs[i] * basis.mode_values(i, x, y)
        partials.append(acc)
    if not partials:
        return acc
    if average_levels <= 0:
        return partials[-1]
    out = np.asarray(partials)
    for _ in range(min(average_levels, out.shape[0] - 1)):
        out = 0.5 * (out[:-1] + out[1:])
    return out[-1]


def apply_adjoint_generator(vec: SpectralVector,
                            series: SecularSeries) -> SpectralVector:
    """Adjoint of the generator in the truncated model.

    Dirichlet action minus the rank-one coupling of the total flux into the
    density direction; the flux functional is normalised by the retained
    mass of the density so that the model operator is the exact adjoint of
    the model generator.
    """
    if series.moments.l2_density_norm is None:
        raise UnsupportedMeasureError("the adjoint requires an L2 density")
    basis = series.basis
    g = flatten(vec, basis)
    hg = basis.eigenvalues * g
    w = series.moments.moments
    mass = float(np.sum(w * basis.one_coeffs))
    flux = complex(np.sum(hg * basis.one_coeffs))
    return SpectralVector(hg - flux * w / mass)


def test_dirichlet_resolvent_diagonal(disk_basis):
    e1 = np.zeros(len(disk_basis), dtype=complex)
    e1[0] = 1.0
    out = rv.apply_dirichlet_resolvent(0.0, rv.SpectralVector(e1), disk_basis)
    assert out.coeffs[0] == pytest.approx(1.0 / disk_basis.eigenvalues[0])
    assert np.all(out.coeffs[1:] == 0)


def test_dirichlet_resolvent_inverse(disk_basis):
    v = rv.random_probe(disk_basis, 0)
    out = rv.apply_dirichlet_resolvent(-2.0, v, disk_basis)
    back = (disk_basis.eigenvalues + 2.0) * out.coeffs
    assert np.abs(back - v.coeffs).max() < 1e-14


def test_dirichlet_resolvent_pole_guard(disk_basis):
    v = rv.SpectralVector(np.ones(len(disk_basis), dtype=complex))
    with pytest.raises(PoleProximityError):
        rv.apply_dirichlet_resolvent(disk_basis.eigenvalues[0], v, disk_basis)


def test_torsion_pointwise(disk_basis):
    # resolvent of the constant at 0 is the torsion profile
    one = rv.SpectralVector(np.zeros(len(disk_basis), dtype=complex), 1.0)
    tor = rv.apply_dirichlet_resolvent(0.0, one, disk_basis)
    val = resum_pointwise(tor, disk_basis, 0.0, 0.0, average_levels=3)
    assert abs(val[0].real - 0.25) < 1e-6
    # plain truncation converges only algebraically at this cutoff
    plain = resum_pointwise(tor, disk_basis, 0.0, 0.0)
    assert 1e-6 < abs(plain[0].real - 0.25) < 1e-3


@pytest.mark.parametrize("lam", [-1.0, -5.0, 3.0 + 2.0j])
def test_jump_resolvent_identity(uniform_disk, lam):
    assert rv.resolvent_identity_defect(uniform_disk, lam, n_probes=5) < 1e-10


def test_jump_resolvent_rejects_zero(uniform_disk):
    v = rv.SpectralVector(np.ones(len(uniform_disk.basis), dtype=complex))
    with pytest.raises(ResolventDomainError):
        rv.apply_jump_resolvent(0.0, v, uniform_disk)


def test_jump_resolvent_domain_membership(uniform_disk, disk_basis):
    v = rv.random_probe(disk_basis, 1)
    u = rv.apply_jump_resolvent(-1.0, v, uniform_disk)
    mean = abs(np.sum(uniform_disk.moments.moments * u.coeffs))
    assert mean < 1e-12


def test_ground_state_resolvent_diagonal_on_orthogonal(groundstate_disk,
                                                       disk_basis):
    # the rank-one correction vanishes on vectors with zero measure moment
    e2 = np.zeros(len(disk_basis), dtype=complex)
    e2[1] = 1.0
    u = rv.apply_jump_resolvent(-1.0, rv.SpectralVector(e2), groundstate_disk)
    ud = rv.apply_dirichlet_resolvent(-1.0, rv.SpectralVector(e2), disk_basis)
    assert np.abs(rv.flatten(u, disk_basis)
                  - rv.flatten(ud, disk_basis)).max() < 1e-15
    assert u.constant == 0


def test_generator_kernel(uniform_disk, disk_basis):
    one = rv.SpectralVector(np.zeros(len(disk_basis), dtype=complex), 1.0)
    out = rv.apply_generator(one, disk_basis, uniform_disk.moments)
    assert np.linalg.norm(out.coeffs) == 0.0


def test_generator_domain_guard(uniform_disk, disk_basis):
    bad = np.zeros(len(disk_basis), dtype=complex)
    bad[0] = 0.1 / uniform_disk.moments.moments[0]
    with pytest.raises(DomainMembershipError):
        rv.apply_generator(rv.SpectralVector(bad), disk_basis,
                           uniform_disk.moments)


def test_generator_kernel_dimension(uniform_disk, disk_basis):
    # the only direction annihilated in the truncated model is the constant:
    # the (coefficients + constant)-to-coefficients matrix has a 1-dim null
    # space spanned by the constant slot
    n = len(disk_basis)
    cols = [disk_basis.eigenvalues * np.eye(n)[i] for i in range(n)]
    cols.append(np.zeros(n))            # image of the pure-constant vector
    mat = np.array(cols).T
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    assert np.min(s) > 0                # full row rank: no extra kernel
    null = vh[-1]
    assert abs(abs(null[-1]) - 1.0) < 1e-12
    assert np.abs(null[:-1]).max() < 1e-12


def test_adjoint_pairing(uniform_disk, groundstate_disk):
    for series in (uniform_disk, groundstate_disk):
        assert rv.adjoint_pairing_defect(series, -1.0, n_probes=10) < 1e-12


def test_adjoint_requires_density(disk_basis):
    mom = measures.compute_moments(measures.DiracMeasure(0.0, 0.0), disk_basis)
    s = secular.build_secular_series(disk_basis, mom)
    v = rv.SpectralVector(np.ones(len(disk_basis), dtype=complex))
    with pytest.raises(UnsupportedMeasureError):
        rv.apply_adjoint_resolvent(-1.0, v, s)


def test_adjoint_generator_inverse(uniform_disk, disk_basis):
    v = rv.random_probe(disk_basis, 2)
    u = rv.apply_adjoint_resolvent(-1.0, v, uniform_disk)
    hu = apply_adjoint_generator(u, uniform_disk)
    resid = rv.flatten(hu, disk_basis) + rv.flatten(u, disk_basis) \
        - rv.flatten(v, disk_basis)
    assert np.linalg.norm(resid) < 1e-12


def test_adjoint_kernel(uniform_disk, disk_basis):
    assert rv.adjoint_kernel_defect(uniform_disk) < 1e-12
    g = rv.adjoint_kernel_vector(uniform_disk)
    hg = apply_adjoint_generator(g, uniform_disk)
    assert np.linalg.norm(hg.coeffs) / np.linalg.norm(g.coeffs) < 1e-12


def test_adjoint_eigenfunction_at_root(uniform_disk, disk_basis):
    roots = secular.real_roots_in(uniform_disk,
                                  disk_basis.eigenvalues[0] + 1e-6, 30.0)
    lam = roots[0].value
    g = rv.SpectralVector(uniform_disk.moments.moments
                          / (disk_basis.eigenvalues - lam))
    # mean-free: (1, g) vanishes exactly at a secular root
    assert abs(np.sum(g.coeffs * disk_basis.one_coeffs)) < 1e-12
    hg = apply_adjoint_generator(g, uniform_disk)
    resid = rv.flatten(hg, disk_basis) - lam * rv.flatten(g, disk_basis)
    assert np.linalg.norm(resid) / np.linalg.norm(g.coeffs) < 1e-10


def test_selfadjointness_defect_positive(uniform_disk, groundstate_disk):
    for series in (uniform_disk, groundstate_disk):
        assert rv.selfadjointness_defect(series) > 1e-6


def test_selfadjoint_control(uniform_disk, disk_basis):
    # the Dirichlet resolvent is symmetric: (R_D(-1) u, v) = (u, R_D(-1) v)
    # on seeded probes; negative control: the jump resolvent's rank-one
    # part breaks the same pairing
    def asymmetry(apply, u, v):
        return abs(np.vdot(flatten(apply(u), disk_basis), flatten(v, disk_basis))
                   - np.vdot(flatten(u, disk_basis), flatten(apply(v), disk_basis)))

    for seed in range(30, 40, 2):
        u = rv.random_probe(disk_basis, seed)
        v = rv.random_probe(disk_basis, seed + 1)
        assert asymmetry(lambda w: rv.apply_dirichlet_resolvent(
            -1.0, w, disk_basis), u, v) < 1e-14
        assert asymmetry(lambda w: rv.apply_jump_resolvent(
            -1.0, w, uniform_disk), u, v) > 1e-6


def test_rank_one_difference(uniform_disk, disk_basis):
    cols = []
    for seed in range(40, 48):
        v = rv.random_probe(disk_basis, seed)
        diff = rv.flatten(rv.apply_jump_resolvent(-1.0, v, uniform_disk),
                          disk_basis) \
            - rv.flatten(rv.apply_dirichlet_resolvent(-1.0, v, disk_basis),
                         disk_basis)
        cols.append(diff)
    s = np.linalg.svd(np.array(cols).T, compute_uv=False)
    assert s[1] < 1e-9 * s[0]


def test_adjoint_kernel_positivity(uniform_disk, groundstate_disk, disk_basis):
    rule = disk_basis.quadrature
    for series in (uniform_disk, groundstate_disk):
        g = rv.adjoint_kernel_vector(series)
        vals = resum_pointwise(g, disk_basis, rule.x[::7], rule.y[::7])
        assert np.min(vals.real) > -1e-6


def test_fault_injected_moments_break_identity(uniform_disk):
    tampered = uniform_disk.moments.with_moments(
        uniform_disk.moments.moments + 1e-3)
    with pytest.raises(DomainMembershipError):
        rv.resolvent_identity_defect(uniform_disk, -1.0, n_probes=1,
                                     generator_moments=tampered)


def test_regular_point_certificate(uniform_disk):
    assert rv.certify_regular_point(uniform_disk, -1.0) > 0
    # at the true eigenvalue (squared second zero of the order-2 Bessel
    # function) regularity cannot be certified
    assert rv.certify_regular_point(uniform_disk, 26.374616427163392) < 0
    # at the model root the division itself is refused
    roots = secular.real_roots_in(uniform_disk, 6.0, 30.0)
    v = rv.SpectralVector(np.ones(len(uniform_disk.basis), dtype=complex))
    with pytest.raises(ResolventDomainError):
        rv.apply_jump_resolvent(roots[0].value, v, uniform_disk)
