"""Restart measures and their moment sequences against the Dirichlet basis.

A measure is specified by one of six variants.  Four of them carry an L2
density (uniform, ground state, explicit density, perturbed base), the other
two are singular (interior point mass, centred circle).  Each variant answers
the same calls: ``density(basis)`` (None when singular), ``integral(basis,
f)``, ``moments(basis)`` (the sequence ``<chi_n>_mu`` that drives the
secular series, in closed form whenever the variant admits one),
``restart(domain, basis)`` (the walk's draw of restart points) and
``check_band(domain, band)`` (rejects a support the walk's boundary band
would kill at once).  The singular variants also give
``support_distance(domain)``, the boundary distance of their support.

A measure supported partly on the boundary reduces to its interior part
renormalised to unit mass, so the optional ``boundary_mass`` field only
records the reduction and is validated to lie in [0, 1) on construction.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ._kernels import (circle_draw, fixed_draw, grid_ratio, radial_ratio,
                       uniform_draw)
from .errors import (MassDeficitError, MeasureError, NegativeDensityError,
                     UnsupportedMeasureError)
from .bessel import bessel_zero, jv
from .geometry import BasisSet, Disk, Domain

_MASS_TOL = 1e-9
_POINTWISE_TOL = 1e-12
_INERT_TOL = 1e-12


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureMoments:
    """Moment sequence of the measure against the basis modes."""

    spec: MeasureSpec
    basis: BasisSet
    moments: np.ndarray
    l2_density_norm: float | None          # None for singular measures
    v_l2_norm: float | None = None         # only for perturbed specs

    def with_moments(self, moments: np.ndarray) -> "MeasureMoments":
        """Copy with a replaced moment vector (fault injection hook)."""
        return dataclasses.replace(self, moments=np.asarray(moments, float))


def _l2(rule, values) -> float:
    return float(np.sqrt(np.real(rule.integrate(values * values))))


# ---------------------------------------------------------------------------
# measure variants
# ---------------------------------------------------------------------------

class _Variant:
    """Validates ``boundary_mass`` when a variant is built."""

    def __post_init__(self):
        if not 0.0 <= self.boundary_mass < 1.0:
            raise MeasureError("boundary_mass must lie in [0, 1)")


class _Density(_Variant):
    """The calls the four absolutely continuous variants share: the integral
    on the quadrature nodes and the grid-table restart."""

    def node_values(self, basis: BasisSet) -> np.ndarray:
        rule = basis.quadrature
        return np.asarray(self.density(basis)(rule.x, rule.y), dtype=float)

    def _checked_values(self, basis: BasisSet, what: str) -> np.ndarray:
        w = self.node_values(basis)
        if np.min(w) < -_POINTWISE_TOL:
            raise NegativeDensityError(
                f"{what} reaches {np.min(w):.3e} on the quadrature grid")
        return w

    def integral(self, basis: BasisSet, f: Callable) -> float:
        rule = basis.quadrature
        w = self.node_values(basis)
        return float(np.real(rule.integrate(np.asarray(f(rule.x, rule.y)) * w)))

    def restart(self, domain: Domain, basis: BasisSet | None):
        """Rejection against a density table over the bounding box."""
        if basis is None:
            raise ValueError("density restarts need a basis for evaluation")
        w = self.density(basis)
        x_lo, x_hi, y_lo, y_hi = domain.bounding_box
        n = 257
        X, Y = np.meshgrid(np.linspace(x_lo, x_hi, n),
                           np.linspace(y_lo, y_hi, n), indexing="ij")
        vals = domain.mask_outside(X, Y, w(X, Y))
        vmax = float(np.max(vals))
        if vmax <= 0:
            raise UnsupportedMeasureError("density table is identically zero")
        return uniform_draw(domain, grid_ratio(np.clip(vals / vmax, 0.0, 1.0)))

    def check_band(self, domain: Domain, band: float):
        """Nothing to check: a density restart is redrawn off the band."""


@dataclass(frozen=True)
class UniformMeasure(_Density):
    boundary_mass: float = 0.0

    def density(self, basis: BasisSet) -> Callable:
        inv_area = 1.0 / basis.domain.area
        return lambda x, y: np.full(np.shape(np.asarray(x)), inv_area)

    def moments(self, basis: BasisSet) -> MeasureMoments:
        area = basis.domain.area
        return MeasureMoments(self, basis, basis.one_coeffs / area,
                              area ** -0.5)

    def restart(self, domain: Domain, basis: BasisSet | None):
        return uniform_draw(domain)


@dataclass(frozen=True)
class GroundStateMeasure(_Density):
    boundary_mass: float = 0.0

    def density(self, basis: BasisSet) -> Callable:
        chi1 = basis.modes[0]
        scale = 1.0 / chi1.one_coeff
        return lambda x, y: scale * chi1.evaluate(x, y)

    def moments(self, basis: BasisSet) -> MeasureMoments:
        # orthonormality gives <chi_n> = delta_{n1}/(chi_1, 1) exactly
        moments = np.zeros(len(basis))
        moments[0] = 1.0 / basis.modes[0].one_coeff
        return MeasureMoments(self, basis, moments,
                              1.0 / basis.modes[0].one_coeff)

    def restart(self, domain: Domain, basis: BasisSet | None):
        """Rejection against J0(j_01 r) over the radius on the disk, against
        the grid table elsewhere."""
        if not isinstance(domain, Disk):
            return super().restart(domain, basis)
        r = np.linspace(0.0, 1.0, 4097)
        return uniform_draw(domain, radial_ratio(
            np.clip(jv(0, bessel_zero(0, 1) * r), 0.0, None)))


@dataclass(frozen=True)
class DensityMeasure(_Density):
    """Absolutely continuous measure with density ``w(x, y)``."""
    w: Callable
    boundary_mass: float = 0.0

    def density(self, basis: BasisSet) -> Callable:
        return self.w

    def moments(self, basis: BasisSet) -> MeasureMoments:
        rule = basis.quadrature
        w = self._checked_values(basis, "density")
        mass = float(np.real(rule.integrate(w)))
        if abs(mass - 1.0) > _MASS_TOL:
            raise MassDeficitError(f"density mass {mass!r} deviates from 1")
        return MeasureMoments(self, basis, basis.domain.moments(w, basis),
                              _l2(rule, w))


@dataclass(frozen=True)
class PerturbedMeasure(_Density):
    """Base density (uniform or ground state) plus a zero-mean bump ``v``."""
    base: Union[UniformMeasure, GroundStateMeasure]
    v: Callable
    boundary_mass: float = 0.0

    def density(self, basis: BasisSet) -> Callable:
        base = self.base.density(basis)
        return lambda x, y: base(x, y) + np.asarray(self.v(x, y), dtype=float)

    def moments(self, basis: BasisSet) -> MeasureMoments:
        rule = basis.quadrature
        w = self._checked_values(basis, "perturbed density")
        vvals = np.asarray(self.v(rule.x, rule.y), dtype=float)
        vmass = float(np.real(rule.integrate(vvals)))
        if abs(vmass) > _MASS_TOL:
            raise MassDeficitError(f"perturbation has nonzero mean {vmass!r}")
        moments = (self.base.moments(basis).moments
                   + basis.domain.moments(vvals, basis))
        return MeasureMoments(self, basis, moments, _l2(rule, w),
                              _l2(rule, vvals))


@dataclass(frozen=True)
class DiracMeasure(_Variant):
    """Point mass at an interior point (distance >= 1e-6 from the boundary)."""
    x0: float
    y0: float
    boundary_mass: float = 0.0

    def density(self, basis: BasisSet) -> None:
        return None

    def integral(self, basis: BasisSet, f: Callable) -> float:
        point = f(np.array([self.x0]), np.array([self.y0]))
        return complex(np.asarray(point).ravel()[0]).real

    def moments(self, basis: BasisSet) -> MeasureMoments:
        if self.support_distance(basis.domain) < 1e-6:
            raise MeasureError("point mass must sit at least 1e-6 inside the domain")
        values = basis.domain.mode_values(basis.modes, np.array([self.x0]),
                                          np.array([self.y0]))
        return MeasureMoments(self, basis, values[:, 0], None)

    def restart(self, domain: Domain, basis: BasisSet | None):
        return fixed_draw(self.x0, self.y0)

    def support_distance(self, domain: Domain) -> float:
        return float(domain.boundary_distance(self.x0, self.y0))

    def check_band(self, domain: Domain, band: float):
        if self.support_distance(domain) <= band:
            raise ValueError("restart point sits inside the boundary band")


@dataclass(frozen=True)
class CircleMeasure(_Variant):
    """Uniform measure on the circle of radius r0 inside the unit disk."""
    r0: float
    boundary_mass: float = 0.0

    def density(self, basis: BasisSet) -> None:
        return None

    def _points(self, n: int):
        theta = 2.0 * math.pi * np.arange(n) / n
        return self.r0 * np.cos(theta), self.r0 * np.sin(theta)

    def integral(self, basis: BasisSet, f: Callable) -> float:
        return float(np.mean(np.real(f(*self._points(512)))))

    def moments(self, basis: BasisSet) -> MeasureMoments:
        if not isinstance(basis.domain, Disk):
            raise UnsupportedMeasureError("circle measures are defined on the disk only")
        if not 0.0 < self.r0 < 1.0:
            raise MeasureError("circle radius must lie in (0, 1)")
        values = basis.domain.mode_values(basis.modes, *self._points(1024))
        return MeasureMoments(self, basis, np.mean(values, axis=1), None)

    def restart(self, domain: Domain, basis: BasisSet | None):
        if not isinstance(domain, Disk):
            raise UnsupportedMeasureError("circle restarts need the disk")
        return circle_draw(self.r0)

    def support_distance(self, domain: Domain) -> float:
        return 1.0 - self.r0

    def check_band(self, domain: Domain, band: float):
        if self.r0 >= 1.0 - band:
            raise ValueError("restart circle sits inside the boundary band")


MeasureSpec = Union[UniformMeasure, GroundStateMeasure, DensityMeasure,
                    DiracMeasure, CircleMeasure, PerturbedMeasure]


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


# Module-level entry points: secular and numrange call the measure through
# these names, and perfbench/tracer.py wraps them to time and count the layer.

def measure_integral(spec: MeasureSpec, basis: BasisSet, f: Callable) -> float:
    """Integral of ``f`` against the measure (quadrature, point or line)."""
    return spec.integral(basis, f)


def compute_moments(spec: MeasureSpec, basis: BasisSet) -> MeasureMoments:
    """Moment sequence ``<chi_n>_mu``, with mass and positivity validation."""
    return spec.moments(basis)


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
    v_norm = _l2(rule, vvals)
    base_vals = spec.base.node_values(basis)
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
