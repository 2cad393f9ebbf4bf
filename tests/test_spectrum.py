import json

import numpy as np
import pytest

from jumpspectra import measures, resolvent as rv, secular, spectrum as sp
from jumpspectra.errors import ConditioningError, DomainMembershipError

J21_SQ = 26.374616427163392


def abs2_sum(series, lam):
    """sum alpha_j / |pole_j - lam|^2 (the reality obstruction)."""
    lam = complex(lam)
    return float(np.sum(series.residues / np.abs(series.poles - lam) ** 2))


def test_ground_state_spectrum_identity(groundstate_disk, disk_basis):
    rep = sp.assemble_spectrum(groundstate_disk, (-1.0, 31.0, -15.0, 15.0))
    certified = sorted(set(round(v.real, 6) for v in rep.certified_values()))
    dirichlet = sorted(set(round(l, 6) for l in disk_basis.eigenvalues
                           if l <= 31.0))
    expected = [0.0] + [l for l in dirichlet
                        if l != round(disk_basis.eigenvalues[0], 6)]
    assert certified == expected
    # the first Dirichlet eigenvalue is only an undetermined candidate
    lam1 = disk_basis.eigenvalues[0]
    kinds = {round(e.value.real, 6): e.kind for e in rep.entries}
    assert kinds[round(lam1, 6)] == sp.UNDETERMINED_DIRICHLET


def test_kernel_entry(uniform_disk):
    rep = sp.assemble_spectrum(uniform_disk, (-1.0, 31.0, -15.0, 15.0))
    kernel = [e for e in rep.entries if e.kind == sp.KERNEL_ZERO]
    assert len(kernel) == 1
    assert kernel[0].value == 0
    assert kernel[0].multiplicity == 1


def test_uniform_disk_classification(uniform_disk, disk_basis):
    rep = sp.assemble_spectrum(uniform_disk, (-1.0, 31.0, -15.0, 15.0))
    by_value = {round(e.value.real, 4): e for e in rep.entries}
    # angular pairs keep a full zero-mean eigenspace
    ang = by_value[round(disk_basis.eigenvalues[1], 4)]
    assert ang.kind == sp.EMBEDDED_DIRICHLET
    assert ang.multiplicity == 2
    # the second radial eigenvalue has nonzero moment: undetermined
    rad2 = by_value[round(30.471262, 4)]
    assert rad2.kind == sp.UNDETERMINED_DIRICHLET
    # one secular root in the window
    roots = [e for e in rep.entries if e.kind == sp.SECULAR_ROOT]
    assert len(roots) == 1
    assert roots[0].value.real == pytest.approx(J21_SQ, abs=1e-3)


def test_spectrum_invariants(disk_basis):
    # the point mass at the origin produces genuine nonreal entries
    mom = measures.compute_moments(measures.DiracMeasure(0.0, 0.0), disk_basis)
    s = secular.build_secular_series(disk_basis, mom)
    rep = sp.assemble_spectrum(s, (-1.0, 120.0, -40.0, 40.0))
    values = [e.value for e in rep.entries if e.certified]
    assert any(abs(v.imag) > 0 for v in values)
    # conjugation closure
    for v in values:
        assert any(abs(np.conj(v) - u) < 1e-9 * (1 + abs(v)) for u in values)
    # location: right half-plane, only 0 on the imaginary axis
    for v in values:
        assert v.real >= -1e-12
        if abs(v) > 1e-12:
            assert abs(v.real) > 1e-9
    lam1 = disk_basis.eigenvalues[0]
    for v in values:
        if abs(v.imag) < 1e-12 and abs(v) > 1e-12:
            assert v.real > lam1 - 1e-9
    # nonreal entries are written as plain float literals
    for row in rep.to_csv().splitlines()[1:]:
        value_re, value_im, _, _, residual = row.split(",")
        float(value_re), float(value_im), float(residual)


def test_reality_obstruction_at_complex_root(disk_basis):
    # at a nonreal eigenvalue the pole/residue form of the obstruction
    # functional vanishes
    mom = measures.compute_moments(measures.DiracMeasure(0.0, 0.0), disk_basis)
    s = secular.build_secular_series(disk_basis, mom)
    rep = secular.complex_roots_in(s, (0.0, 120.0, 0.01, 40.0))
    root = rep.complex_roots[0].value
    assert abs(abs2_sum(s, root)) < 1e-12
    # away from roots it does not vanish
    assert abs(abs2_sum(s, root + 3.0)) > 1e-6


def test_lambda1_fields(groundstate_disk, disk_basis):
    rep = sp.assemble_spectrum(groundstate_disk, (-1.0, 31.0, -15.0, 15.0))
    assert rep.lambda1 == pytest.approx(disk_basis.eigenvalues[1])
    assert rep.lambda1_pessimistic == pytest.approx(disk_basis.eigenvalues[0])


def test_window_filtering(uniform_disk):
    rep = sp.assemble_spectrum(uniform_disk, (-1.0, 10.0, -5.0, 5.0))
    assert all(e.value.real <= 10.0 for e in rep.entries)


# --- eigenfunctions (built and checked in resolvent) --------------------------

def _first_root(series, basis):
    return secular.real_roots_in(series, basis.eigenvalues[0] + 1e-6, 30.0)[0]


def test_eigenfunction_construction(uniform_disk, disk_basis):
    root = _first_root(uniform_disk, disk_basis).value
    u = rv.eigenfunction_at(root, uniform_disk)
    assert isinstance(u, rv.SpectralVector)
    assert u.constant == 1.0
    assert abs(np.sum(uniform_disk.moments.moments * u.coeffs)) < 1e-10
    # boundary value equals the measure mean equals 1
    mean = complex(np.sum(uniform_disk.moments.moments * u.coeffs)
                   + u.constant)
    assert mean == pytest.approx(1.0, abs=1e-8)
    assert rv.generator_residual(u, root, uniform_disk) < 1e-12


def test_eigenfunction_rejects_non_roots(uniform_disk):
    with pytest.raises(DomainMembershipError):
        rv.eigenfunction_at(20.0, uniform_disk)


def test_eigenfunction_conditioning_guard(uniform_disk, disk_basis):
    with pytest.raises(ConditioningError):
        rv.eigenfunction_at(disk_basis.eigenvalues[0] + 1e-10, uniform_disk)


def test_eigenfunction_small_lambda_limit(disk_basis):
    # the eigenfunction formula degenerates to the constant as lam -> 0
    lam = 1e-8
    coeffs = lam * disk_basis.one_coeffs / (disk_basis.eigenvalues - lam)
    assert np.abs(coeffs).max() < 1e-7


# --- serialization ------------------------------------------------------------

def test_report_serialization(groundstate_disk):
    rep = sp.assemble_spectrum(groundstate_disk, (-1.0, 31.0, -15.0, 15.0))
    payload = json.loads(rep.to_json())
    assert payload["lambda1"] == pytest.approx(rep.lambda1)
    assert len(payload["entries"]) == len(rep.entries)
    csv_text = rep.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "value_re,value_im,kind,multiplicity,residual"
    assert len(lines) == len(rep.entries) + 1
    # deterministic serialisation
    assert rep.to_json() == rep.to_json()
    assert rep.to_csv() == rep.to_csv()
