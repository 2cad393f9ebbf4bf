"""Coefficient-space action of the restart generator and its resolvents.

Vectors live in the span of the retained Dirichlet modes, optionally with a
separately tracked component along the constant function (needed because
generator-domain vectors split as ``u = u0 + c`` with ``u0`` Dirichlet and
``c`` constant).  All operators act on this truncated model; within the
model every identity below is exact to rounding, and the distance to the
untruncated operators is controlled by the secular tail bounds.

The resolvent of the generator is the Dirichlet resolvent plus a rank-one
correction built from the resolvent of the constant function and the measure
functional; the adjoint resolvent swaps the two rank-one factors and exists
for measures with square-integrable densities.  An eigenvector at a secular
root ``lam`` is ``1 + lam R_D(lam) 1``, and the kernel of the adjoint is the
Dirichlet solve of the measure, the walk's stationary profile.  This module
is the one place that stores and checks such vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import complex_normals, derive_seeds
from .errors import (ConditioningError, DomainMembershipError,
                     PoleProximityError, ResolventDomainError,
                     UnsupportedMeasureError)
from .geometry import BasisSet
from .measures import MeasureMoments
from .secular import SecularSeries, eval_secular

_DOMAIN_TOL = 1e-8
# each check draws its random probes from a splitmix64 seed of its own
_IDENTITY_SEED, _PAIRING_SEED, _SELFADJOINT_SEED = 7, 11, 3
_SELFADJOINT_PROBES = 10


@dataclass(frozen=True)
class SpectralVector:
    """Mode coefficients plus an explicit component along the constant."""

    coeffs: np.ndarray
    constant: complex = 0.0


def flatten(vec: SpectralVector, basis: BasisSet) -> np.ndarray:
    """Project the hybrid representation onto plain mode coefficients."""
    out = np.asarray(vec.coeffs, dtype=complex)
    if vec.constant != 0:
        out = out + vec.constant * basis.one_coeffs
    return out


def random_probe(basis: BasisSet, seed: int) -> SpectralVector:
    """A unit probe whose coefficients are the complex normals of the
    splitmix64 stream ``seed``."""
    z = complex_normals(seed, len(basis))
    return SpectralVector(z / np.linalg.norm(z))


def _mode_secular(series: SecularSeries, lam: complex) -> complex:
    """Mode-level truncated secular value (exact match to the functionals)."""
    basis = series.basis
    return complex(np.sum(series.moments.moments * basis.one_coeffs
                          / (basis.eigenvalues - lam)))


def _require_regular(basis: BasisSet, lam: complex):
    if basis.spectral_distance(lam) < 1e-10:
        raise PoleProximityError(
            f"lam = {lam} within 1e-10 of the Dirichlet spectrum")


def apply_dirichlet_resolvent(lam: complex, vec: SpectralVector,
                              basis: BasisSet) -> SpectralVector:
    """Diagonal action of the Dirichlet resolvent on flattened coefficients."""
    lam = complex(lam)
    _require_regular(basis, lam)
    total = flatten(vec, basis)
    return SpectralVector(total / (basis.eigenvalues - lam))


def apply_generator(vec: SpectralVector, basis: BasisSet,
                    moments: MeasureMoments) -> SpectralVector:
    """Apply the generator to ``u = u0 + c``; requires ``<u0>_mu = 0``."""
    u0 = np.asarray(vec.coeffs, dtype=complex)
    defect = abs(np.sum(moments.moments * u0))
    scale = max(1.0, float(np.linalg.norm(u0)))
    if defect > _DOMAIN_TOL * scale:
        raise DomainMembershipError(
            f"measure mean of the Dirichlet part is {defect:.3e}, not 0")
    return SpectralVector(basis.eigenvalues * u0)


def certify_regular_point(series: SecularSeries, lam: complex) -> float:
    """Certified margin that lam is a regular point of the generator.

    Returns ``|s(lam)| - tail_bound``; non-positive margins are refused by
    the resolvent.
    """
    value, bound = eval_secular(series, lam)
    return abs(value) - bound


def apply_jump_resolvent(lam: complex, vec: SpectralVector,
                         series: SecularSeries) -> SpectralVector:
    """Resolvent of the restart generator at a certified regular point."""
    lam = complex(lam)
    if lam == 0:
        raise ResolventDomainError("0 is an eigenvalue of the generator")
    basis = series.basis
    _require_regular(basis, lam)
    margin = certify_regular_point(series, lam)
    if margin <= 0:
        raise ResolventDomainError(
            f"cannot certify lam = {lam} as a regular point: secular value "
            f"within {abs(margin):.3e} of the tail bound")
    model = _mode_secular(series, lam)
    if abs(model) < 1e-10:
        raise ResolventDomainError(
            f"truncated secular value {abs(model):.2e} at lam = {lam} is too "
            f"small to divide by (model eigenvalue nearby)")
    total = flatten(vec, basis)
    rd = total / (basis.eigenvalues - lam)
    functional = complex(np.sum(series.moments.moments * rd))
    c = -functional / (lam * model)
    u0 = rd + lam * c * basis.one_coeffs / (basis.eigenvalues - lam)
    return SpectralVector(u0, c)


def apply_adjoint_resolvent(lam: complex, vec: SpectralVector,
                            series: SecularSeries) -> SpectralVector:
    """Adjoint resolvent; defined for measures with an L2 density."""
    lam = complex(lam)
    if series.moments.l2_density_norm is None:
        raise UnsupportedMeasureError(
            "the adjoint resolvent requires a measure with an L2 density")
    if lam == 0:
        raise ResolventDomainError("0 is an eigenvalue of the adjoint")
    basis = series.basis
    _require_regular(basis, lam)
    if certify_regular_point(series, np.conj(lam)) <= 0:
        raise ResolventDomainError(
            f"conjugate point {np.conj(lam)} not certified regular")
    total = flatten(vec, basis)
    w = series.moments.moments            # (chi_n, w) for density measures
    lam_bar = np.conj(lam)
    f = lam_bar * basis.one_coeffs / (basis.eigenvalues - lam_bar) + basis.one_coeffs
    pairing = complex(np.sum(total * np.conj(f)))
    rd = total / (basis.eigenvalues - lam)
    rdw = w / (basis.eigenvalues - lam)
    return SpectralVector(rd - pairing * rdw / (lam * _mode_secular(series, lam)))


def adjoint_kernel_vector(series: SecularSeries) -> SpectralVector:
    """Kernel direction of the adjoint: the Dirichlet solve ``R_D(0) mu`` of
    the measure, coefficients ``<chi_n>_mu / lambda_n``.  Normalised to unit
    mass it is the walk's stationary density, for every measure; it lies in
    L2, the adjoint's space, when the measure has an L2 density."""
    return SpectralVector(series.moments.moments / series.basis.eigenvalues)


def adjoint_kernel_defect(series: SecularSeries) -> float:
    """Relative defect of the adjoint kernel direction check.

    Applying the Dirichlet operator to the kernel vector must reproduce a
    multiple of the density; returns the relative size of the orthogonal
    remainder.
    """
    basis = series.basis
    g = adjoint_kernel_vector(series)
    hg = basis.eigenvalues * g.coeffs
    w = series.moments.moments.astype(complex)
    coef = np.vdot(w, hg) / np.vdot(w, w)
    return float(np.linalg.norm(hg - coef * w) / np.linalg.norm(hg))


def eigenfunction_at(lam: complex, series: SecularSeries) -> SpectralVector:
    """Eigenvector ``1 + lam R_D(lam) 1`` at a secular root of the model.

    Its coefficients are ``lam (1, chi_n)/(lambda_n - lam)`` with constant
    part 1.  The measure mean of the Dirichlet part vanishes only at a model
    root, so ``apply_generator``'s domain check refuses any other point.
    """
    lam = complex(lam)
    if lam == 0:
        raise ValueError("use the explicit kernel vector for the eigenvalue 0")
    basis = series.basis
    gap = float(basis.spectral_distance(lam))
    if gap < 1e-8:
        raise ConditioningError(
            f"lam = {lam} is within {gap:.2e} of a Dirichlet eigenvalue")
    u = SpectralVector(lam * basis.one_coeffs / (basis.eigenvalues - lam), 1.0)
    apply_generator(u, basis, series.moments)     # the domain check
    return u


def generator_residual(u: SpectralVector, lam: complex,
                       series: SecularSeries) -> float:
    """Relative residual ``||H u - lam u|| / (|lam| ||u||)`` of the
    eigen-equation in the truncated model."""
    basis = series.basis
    total = flatten(u, basis)
    hu = apply_generator(u, basis, series.moments).coeffs
    return float(np.linalg.norm(hu - lam * total)
                 / (abs(lam) * np.linalg.norm(total)))


def _worst_probe(seed: int, n_probes: int, defect) -> float:
    """Largest ``defect(s)`` over the ``n_probes`` probe seeds ``s`` of
    ``derive_seeds(seed, n_probes)``; NaN if any defect is NaN, so that no
    bound passes it."""
    return float(np.max([defect(s) for s in
                         derive_seeds(seed, n_probes).tolist()]))


def resolvent_identity_defect(series: SecularSeries, lam: complex,
                              n_probes: int = 20,
                              generator_moments: MeasureMoments | None = None) -> float:
    """max_v ||(H - lam) R(lam) v - v|| / ||v|| over random probes.

    ``generator_moments`` overrides the moment vector seen by the generator
    domain check; passing an inconsistent vector models a corrupted data
    path (fault injection) and makes the identity fail.
    """
    basis = series.basis
    moments = generator_moments if generator_moments is not None else series.moments

    def defect(seed):
        v = random_probe(basis, seed)
        u = apply_jump_resolvent(lam, v, series)
        hu = apply_generator(u, basis, moments)
        return np.linalg.norm(flatten(hu, basis) - lam * flatten(u, basis)
                              - flatten(v, basis))
    return _worst_probe(_IDENTITY_SEED, n_probes, defect)


def adjoint_pairing_defect(series: SecularSeries, lam: complex,
                           n_probes: int = 20) -> float:
    """max |(R(conj lam) u, v) - (u, R*(lam) v)| over random probe pairs."""
    basis = series.basis

    def defect(seed):
        u, v = (random_probe(basis, s)
                for s in derive_seeds(seed, 2).tolist())
        # the pairing (a, b) conjugates its second slot; np.vdot the first
        left = np.vdot(flatten(v, basis),
                       flatten(apply_jump_resolvent(np.conj(lam), u, series), basis))
        right = np.vdot(flatten(apply_adjoint_resolvent(lam, v, series), basis),
                        flatten(u, basis))
        return abs(left - right)
    return _worst_probe(_PAIRING_SEED, n_probes, defect)


def selfadjointness_defect(series: SecularSeries) -> float:
    """max ||(R(-1) - R*(-1)) v|| / ||v||; positive for every measure."""
    basis = series.basis

    def defect(seed):
        v = random_probe(basis, seed)
        a = flatten(apply_jump_resolvent(-1.0, v, series), basis)
        b = flatten(apply_adjoint_resolvent(-1.0, v, series), basis)
        return np.linalg.norm(a - b)
    return _worst_probe(_SELFADJOINT_SEED, _SELFADJOINT_PROBES, defect)
