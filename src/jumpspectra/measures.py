"""Restart measures and their moment sequences against the Dirichlet basis.

A measure is specified by one of six variants.  Four of them carry an L2
density (uniform, ground state, explicit density, perturbed base), the other
two are singular (interior point mass, centred circle).  The moment sequence
``<chi_n>_mu`` drives the secular series; closed forms are used whenever the
variant admits one.

A measure supported partly on the boundary reduces to its interior part
renormalised to unit mass, so the optional ``boundary_mass`` field only
records the reduction and validates ``boundary_mass < 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (MassDeficitError, MeasureError, NegativeDensityError,
                     UnsupportedMeasureError)
from .geometry import BasisSet, Disk, Domain

_MASS_TOL = 1e-9
_POINTWISE_TOL = 1e-12
_INERT_TOL = 1e-12


# ---------------------------------------------------------------------------
# measure variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformMeasure:
    boundary_mass: float = 0.0


@dataclass(frozen=True)
class GroundStateMeasure:
    boundary_mass: float = 0.0


@dataclass(frozen=True)
class DensityMeasure:
    """Absolutely continuous measure with density ``w(x, y)``."""
    w: Callable
    boundary_mass: float = 0.0


@dataclass(frozen=True)
class DiracMeasure:
    """Point mass at an interior point (distance >= 1e-6 from the boundary)."""
    x0: float
    y0: float
    boundary_mass: float = 0.0


@dataclass(frozen=True)
class CircleMeasure:
    """Uniform measure on the circle of radius r0 inside the unit disk."""
    r0: float
    boundary_mass: float = 0.0


@dataclass(frozen=True)
class PerturbedMeasure:
    """Base density (uniform or ground state) plus a zero-mean bump ``v``."""
    base: Union[UniformMeasure, GroundStateMeasure]
    v: Callable
    boundary_mass: float = 0.0


MeasureSpec = Union[UniformMeasure, GroundStateMeasure, DensityMeasure,
                    DiracMeasure, CircleMeasure, PerturbedMeasure]


def _validate_boundary_mass(spec: MeasureSpec):
    if not 0.0 <= spec.boundary_mass < 1.0:
        raise MeasureError("boundary_mass must lie in [0, 1)")


def density_from_grid(values: np.ndarray, domain: Domain) -> Callable:
    """Bilinear interpolant of density samples on a regular grid.

    ``values[i, j]`` is the density at the (i, j) lattice point of a uniform
    grid over the domain bounding box (rows move along x).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or min(values.shape) < 2:
        raise MeasureError("grid density must be a 2-D array with >= 2 points per axis")
    x_lo, x_hi, y_lo, y_hi = domain.bounding_box
    nx, ny = values.shape

    def w(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        fx = np.clip((x - x_lo) / (x_hi - x_lo) * (nx - 1), 0, nx - 1 - 1e-12)
        fy = np.clip((y - y_lo) / (y_hi - y_lo) * (ny - 1), 0, ny - 1 - 1e-12)
        ix = fx.astype(int)
        iy = fy.astype(int)
        tx = fx - ix
        ty = fy - iy
        return ((1 - tx) * (1 - ty) * values[ix, iy]
                + tx * (1 - ty) * values[ix + 1, iy]
                + (1 - tx) * ty * values[ix, iy + 1]
                + tx * ty * values[ix + 1, iy + 1])

    return w


# ---------------------------------------------------------------------------
# densities and integrals
# ---------------------------------------------------------------------------

def ground_state_density(basis: BasisSet) -> Callable:
    chi1 = basis.modes[0]
    scale = 1.0 / chi1.one_coeff

    def w(x, y):
        return scale * chi1.evaluate(x, y)

    return w


def density_function(spec: MeasureSpec, basis: BasisSet) -> Callable | None:
    """Pointwise density callable, or None for singular measures."""
    if isinstance(spec, UniformMeasure):
        inv_area = 1.0 / basis.domain.area
        return lambda x, y: np.full(np.shape(np.asarray(x)), inv_area)
    if isinstance(spec, GroundStateMeasure):
        return ground_state_density(basis)
    if isinstance(spec, DensityMeasure):
        return spec.w
    if isinstance(spec, PerturbedMeasure):
        base = density_function(spec.base, basis)
        return lambda x, y: base(x, y) + np.asarray(spec.v(x, y), dtype=float)
    return None


def density_values(spec: MeasureSpec, basis: BasisSet) -> np.ndarray | None:
    """Density at the quadrature nodes, or None for singular measures."""
    w = density_function(spec, basis)
    rule = basis.quadrature
    return None if w is None else np.asarray(w(rule.x, rule.y), dtype=float)


def measure_integral(spec: MeasureSpec, basis: BasisSet, f: Callable) -> float:
    """Integral of ``f`` against the measure (quadrature, point or line)."""
    rule = basis.quadrature
    if isinstance(spec, DiracMeasure):
        return complex(np.asarray(f(np.array([spec.x0]), np.array([spec.y0]))).ravel()[0]).real
    if isinstance(spec, CircleMeasure):
        n = 512
        theta = 2.0 * math.pi * np.arange(n) / n
        vals = f(spec.r0 * np.cos(theta), spec.r0 * np.sin(theta))
        return float(np.mean(np.real(vals)))
    w = density_values(spec, basis)
    return float(np.real(rule.integrate(np.asarray(f(rule.x, rule.y)) * w)))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureMoments:
    """Moment sequence of the measure against the basis modes."""

    spec: MeasureSpec
    basis: BasisSet
    moments: np.ndarray
    mass: float
    l2_density_norm: float | None          # None for singular measures
    v_l2_norm: float | None                # only for perturbed specs
    heuristic_tail: bool                   # no rigorous tail bound available

    def with_moments(self, moments: np.ndarray) -> "MeasureMoments":
        """Copy with a replaced moment vector (fault injection hook)."""
        return MeasureMoments(self.spec, self.basis, np.asarray(moments, float),
                              self.mass, self.l2_density_norm, self.v_l2_norm,
                              self.heuristic_tail)


def compute_moments(spec: MeasureSpec, basis: BasisSet) -> MeasureMoments:
    """Moment sequence ``<chi_n>_mu``, with mass and positivity validation."""
    _validate_boundary_mass(spec)
    domain = basis.domain
    rule = basis.quadrature
    v_norm = None
    heuristic = False

    if isinstance(spec, UniformMeasure):
        moments = basis.one_coeffs / domain.area
        mass = 1.0
        l2 = domain.area ** -0.5
    elif isinstance(spec, GroundStateMeasure):
        # orthonormality gives <chi_n> = delta_{n1}/(chi_1, 1) exactly
        moments = np.zeros(len(basis))
        moments[0] = 1.0 / basis.modes[0].one_coeff
        mass = 1.0
        l2 = 1.0 / basis.modes[0].one_coeff
    elif isinstance(spec, DensityMeasure):
        w = density_values(spec, basis)
        if np.min(w) < -_POINTWISE_TOL:
            raise NegativeDensityError(
                f"density reaches {np.min(w):.3e} on the quadrature grid")
        mass = float(np.real(rule.integrate(w)))
        if abs(mass - 1.0) > _MASS_TOL:
            raise MassDeficitError(f"density mass {mass!r} deviates from 1")
        moments = domain.moments(w, basis)
        l2 = float(np.sqrt(np.real(rule.integrate(w * w))))
    elif isinstance(spec, PerturbedMeasure):
        w = density_values(spec, basis)
        if np.min(w) < -_POINTWISE_TOL:
            raise NegativeDensityError(
                f"perturbed density reaches {np.min(w):.3e} on the quadrature grid")
        vvals = np.asarray(spec.v(rule.x, rule.y), dtype=float)
        vmass = float(np.real(rule.integrate(vvals)))
        if abs(vmass) > _MASS_TOL:
            raise MassDeficitError(f"perturbation has nonzero mean {vmass!r}")
        base = compute_moments(spec.base, basis)
        moments = base.moments + domain.moments(vvals, basis)
        mass = 1.0
        l2 = float(np.sqrt(np.real(rule.integrate(w * w))))
        v_norm = float(np.sqrt(np.real(rule.integrate(vvals * vvals))))
    elif isinstance(spec, DiracMeasure):
        if domain.boundary_distance(spec.x0, spec.y0) < 1e-6:
            raise MeasureError("point mass must sit at least 1e-6 inside the domain")
        px = np.array([spec.x0])
        py = np.array([spec.y0])
        moments = np.array([float(m.evaluate(px, py)[0]) for m in basis.modes])
        mass = 1.0
        l2 = None
        heuristic = True
    elif isinstance(spec, CircleMeasure):
        if not isinstance(domain, Disk):
            raise UnsupportedMeasureError("circle measures are defined on the disk only")
        if not 0.0 < spec.r0 < 1.0:
            raise MeasureError("circle radius must lie in (0, 1)")
        n = 1024
        theta = 2.0 * math.pi * np.arange(n) / n
        cx, cy = spec.r0 * np.cos(theta), spec.r0 * np.sin(theta)
        moments = np.array([float(np.mean(m.evaluate(cx, cy))) for m in basis.modes])
        mass = 1.0
        l2 = None
        heuristic = True
    else:
        raise TypeError(f"unknown measure spec {spec!r}")

    return MeasureMoments(spec, basis, np.asarray(moments, dtype=float),
                          mass, l2, v_norm, heuristic)


# ---------------------------------------------------------------------------
# admissibility of perturbations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityCertificate:
    """Outcome of the three perturbation checks at level k.

    ``threshold`` skips modes whose mean coefficient vanishes identically
    (symmetry zeros), which is the reading under which the interlacing
    machinery operates; ``threshold_literal`` takes the first k modes of the
    raw enumeration.  On domains with symmetries the literal threshold is 0
    for every k >= 2, so only ``k = 1`` is literally satisfiable there.
    """

    passed: bool
    k: int
    v_norm: float
    threshold: float
    margin: float
    threshold_literal: float
    literal_passed: bool
    zero_mean_ok: bool
    lower_bound_ok: bool
    base_kind: str

    def summary(self) -> str:
        verdict = "pass" if self.passed else "fail"
        return (f"admissibility[k={self.k}] {verdict}: |v|={self.v_norm:.4e} "
                f"threshold={self.threshold:.4e} margin={self.margin:.4e}")


def check_hypothesis_v(spec: PerturbedMeasure, basis: BasisSet,
                       k: int) -> AdmissibilityCertificate:
    """Pointwise lower bound, zero mean and smallness checks for ``v``."""
    if not isinstance(spec, PerturbedMeasure):
        raise TypeError("admissibility checks apply to perturbed measures only")
    rule = basis.quadrature
    vvals = np.asarray(spec.v(rule.x, rule.y), dtype=float)
    vmass = float(np.real(rule.integrate(vvals)))
    v_norm = float(np.sqrt(np.real(rule.integrate(vvals * vvals))))
    base_vals = density_values(spec.base, basis)
    zero_mean_ok = abs(vmass) <= _MASS_TOL
    lower_bound_ok = bool(np.min(base_vals + vvals) >= -_POINTWISE_TOL)

    if isinstance(spec.base, UniformMeasure):
        ocs = np.abs(basis.one_coeffs)
        lit = ocs[:k]
        threshold_literal = float(np.min(lit) / basis.domain.area) if len(lit) >= k else 0.0
        live = ocs[ocs > _INERT_TOL]
        if len(live) >= k:
            threshold = float(np.min(live[:k]) / basis.domain.area)
        else:
            threshold = 0.0
        base_kind = "uniform"
    else:
        threshold = threshold_literal = basis.domain.area ** -0.5
        base_kind = "ground_state"

    small_ok = v_norm < threshold
    passed = zero_mean_ok and lower_bound_ok and small_ok
    literal_passed = zero_mean_ok and lower_bound_ok and v_norm < threshold_literal
    return AdmissibilityCertificate(
        passed=passed, k=k, v_norm=v_norm, threshold=threshold,
        margin=threshold - v_norm, threshold_literal=threshold_literal,
        literal_passed=literal_passed, zero_mean_ok=zero_mean_ok,
        lower_bound_ok=lower_bound_ok, base_kind=base_kind)
