"""Restart measures and their moment sequences against the Dirichlet basis.

A measure is specified by one of six variants.  Four of them carry an L2
density (uniform, ground state, explicit density, perturbed base), the other
two are singular (interior point mass, centred circle).  Each variant answers
the same calls: ``density(basis)`` (None when singular), ``integral(basis,
f)``, ``moments(basis)`` (the sequence ``<chi_n>_mu`` that drives the
secular series, in closed form whenever the variant admits one),
``anchors(basis)`` (the secular series' tail anchors, in closed form for the
uniform, ground-state and perturbed variants), ``restart(basis)`` (the
walk's draw of restart points on ``basis.domain``) and ``check_band(domain,
band)`` (rejects a support the walk's boundary band would kill at once).
The singular variants also give ``support_distance(domain)``, the boundary
distance of their support.

A restart measure is a probability measure on the open domain, so no mass
on the boundary enters the generator.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ._kernels import (bilinear, circle_draw, fixed_draw, grid_ratio,
                       radial_ratio, uniform_draw)
from .errors import (MassDeficitError, MeasureError, NegativeDensityError,
                     UnsupportedMeasureError)
from .bessel import bessel_zero, jv
from .geometry import (BasisSet, Disk, Domain, torsion_function,
                       torsion_second)

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
    moments: np.ndarray
    l2_density_norm: float | None          # None for singular measures

    def with_moments(self, moments: np.ndarray) -> "MeasureMoments":
        """Copy with a replaced moment vector (fault injection hook)."""
        return dataclasses.replace(self, moments=np.asarray(moments, float))


# ---------------------------------------------------------------------------
# measure variants
# ---------------------------------------------------------------------------

class _Variant:
    """Integrates the tail anchors against the measure where no closed form
    is known."""

    def anchors(self, basis: BasisSet) -> tuple[float, float]:
        """``<R_D(0) 1>_mu`` and ``<R_D(0)^2 1>_mu``: the torsion function
        and its iterate integrated against the measure."""
        return (measure_integral(self, basis, torsion_function(basis.domain)),
                measure_integral(self, basis, torsion_second(basis.domain)))


class _Density(_Variant):
    """The calls the four absolutely continuous variants share: the integral
    on the quadrature nodes and the grid-table restart."""

    def node_values(self, basis: BasisSet) -> np.ndarray:
        return np.asarray(basis.quadrature.values(self.density(basis)),
                          dtype=float)

    def _checked_values(self, basis: BasisSet, what: str) -> np.ndarray:
        w = self.node_values(basis)
        if np.min(w) < -_POINTWISE_TOL:
            raise NegativeDensityError(
                f"{what} reaches {np.min(w):.3e} on the quadrature grid")
        return w

    def integral(self, basis: BasisSet, f: Callable) -> float:
        rule = basis.quadrature
        w = self.node_values(basis)
        return float(np.real(rule.integrate(rule.values(f) * w)))

    def restart(self, basis: BasisSet):
        """Rejection against a density table over the bounding box."""
        domain = basis.domain
        w = self.density(basis)
        x_lo, x_hi, y_lo, y_hi = domain.bounding_box
        n = 257
        # an open mesh, rows along x; a density of one coordinate broadcasts
        X = np.linspace(x_lo, x_hi, n)[:, None]
        Y = np.linspace(y_lo, y_hi, n)[None, :]
        vals = np.broadcast_to(domain.mask_outside(X, Y, w(X, Y)), (n, n))
        vmax = float(np.max(vals))
        if vmax <= 0:
            raise UnsupportedMeasureError("density table is identically zero")
        return uniform_draw(domain, grid_ratio(np.clip(vals / vmax, 0.0, 1.0)))

    def check_band(self, domain: Domain, band: float):
        """Nothing to check: a density restart is redrawn off the band."""


@dataclass(frozen=True)
class UniformMeasure(_Density):
    def density(self, basis: BasisSet) -> Callable:
        inv_area = 1.0 / basis.domain.area
        return lambda x, y: np.full(np.shape(np.asarray(x)), inv_area)

    def moments(self, basis: BasisSet) -> MeasureMoments:
        area = basis.domain.area
        return MeasureMoments(self, basis.one_coeffs / area, area ** -0.5)

    def anchors(self, basis: BasisSet) -> tuple[float, float]:
        area = basis.domain.area
        g, g2 = basis.domain.torsion_integrals()
        return g / area, g2 / area

    def restart(self, basis: BasisSet):
        return uniform_draw(basis.domain)


@dataclass(frozen=True)
class GroundStateMeasure(_Density):
    def density(self, basis: BasisSet) -> Callable:
        scale = 1.0 / float(basis.one_coeffs[0])
        return lambda x, y: scale * basis.mode_values(0, x, y)

    def moments(self, basis: BasisSet) -> MeasureMoments:
        # orthonormality gives <chi_n> = delta_{n1}/(chi_1, 1) exactly
        norm = 1.0 / float(basis.one_coeffs[0])
        moments = np.zeros(len(basis))
        moments[0] = norm
        return MeasureMoments(self, moments, norm)

    def anchors(self, basis: BasisSet) -> tuple[float, float]:
        # (g, chi_1) = (1, chi_1)/lambda_1 and (g2, chi_1) = (1,
        # chi_1)/lambda_1^2, over the density's normalisation (1, chi_1)
        lam = float(basis.eigenvalues[0])
        return 1.0 / lam, 1.0 / lam ** 2

    def restart(self, basis: BasisSet):
        """Rejection against J0(j_01 r) over the radius on the disk, against
        the grid table elsewhere."""
        if not isinstance(basis.domain, Disk):
            return super().restart(basis)
        r = np.linspace(0.0, 1.0, 4097)
        return uniform_draw(basis.domain, radial_ratio(
            np.clip(jv(0, bessel_zero(0, 1) * r), 0.0, None)))


@dataclass(frozen=True)
class DensityMeasure(_Density):
    """Absolutely continuous measure with density ``w(x, y)``."""
    w: Callable

    def density(self, basis: BasisSet) -> Callable:
        return self.w

    def moments(self, basis: BasisSet) -> MeasureMoments:
        rule = basis.quadrature
        w = self._checked_values(basis, "density")
        mass = float(np.real(rule.integrate(w)))
        if abs(mass - 1.0) > _MASS_TOL:
            raise MassDeficitError(f"density mass {mass!r} deviates from 1")
        return MeasureMoments(self, basis.domain.moments(w, basis),
                              float(np.sqrt(np.real(rule.integrate(w * w)))))


@dataclass(frozen=True, eq=False)   # v is an array: equal only to itself
class PerturbedMeasure(_Density):
    """Base density (uniform or ground state) plus a zero-mean combination
    of basis modes, held as its coefficients ``v[n] = (chi_n, v)``: its
    moments, mean and norms are exact sums over them."""
    base: Union[UniformMeasure, GroundStateMeasure]
    v: np.ndarray

    def coefficients(self, basis: BasisSet) -> np.ndarray:
        """``v``, checked to hold one coefficient per mode of ``basis``."""
        v = np.asarray(self.v, dtype=float)
        if v.shape != (len(basis),):
            raise MeasureError(f"perturbation of shape {v.shape} on a basis "
                               f"of {len(basis)} modes")
        return v

    def density(self, basis: BasisSet) -> Callable:
        base, v = self.base.density(basis), self.coefficients(basis)
        live = np.flatnonzero(v)
        return lambda x, y: base(x, y) + sum(
            c * row for c, row in zip(v[live], basis.mode_values(live, x, y)))

    def moments(self, basis: BasisSet) -> MeasureMoments:
        self._checked_values(basis, "perturbed density")
        v = self.coefficients(basis)
        mean = float(v @ basis.one_coeffs)
        if abs(mean) > _MASS_TOL:
            raise MassDeficitError(f"perturbation has nonzero mean {mean!r}")
        base = self.base.moments(basis)
        # Parseval: |w_base + v|^2 = |w_base|^2 + 2 (w_base, v) + |v|^2
        return MeasureMoments(self, base.moments + v, math.sqrt(
            base.l2_density_norm ** 2 + 2.0 * (v @ base.moments) + v @ v))

    def anchors(self, basis: BasisSet) -> tuple[float, float]:
        # (g, chi_n) = (1, chi_n)/lambda_n and (g2, chi_n) = (1,
        # chi_n)/lambda_n^2, so v adds v . (o/lambda) and v . (o/lambda^2)
        v = self.coefficients(basis)
        g, g2 = self.base.anchors(basis)
        o_lam = basis.one_coeffs / basis.eigenvalues
        return (g + float(v @ o_lam),
                g2 + float(v @ (o_lam / basis.eigenvalues)))


@dataclass(frozen=True)
class DiracMeasure(_Variant):
    """Point mass at an interior point (distance >= 1e-6 from the boundary)."""
    x0: float
    y0: float

    def density(self, basis: BasisSet) -> None:
        return None

    def integral(self, basis: BasisSet, f: Callable) -> float:
        point = f(np.array([self.x0]), np.array([self.y0]))
        return complex(np.asarray(point).ravel()[0]).real

    def moments(self, basis: BasisSet) -> MeasureMoments:
        if self.support_distance(basis.domain) < 1e-6:
            raise MeasureError("point mass must sit at least 1e-6 inside the domain")
        values = basis.mode_values(slice(None), np.array([self.x0]),
                                   np.array([self.y0]))
        return MeasureMoments(self, values[:, 0], None)

    def restart(self, basis: BasisSet):
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
        # the angular modes average to 0 on the centred circle, and an
        # order-0 mode is constant on it: its value at (r0, 0)
        at = basis.mode_values(slice(None), np.array([self.r0]),
                               np.array([0.0]))[:, 0]
        return MeasureMoments(self, np.where(basis.params[:, 0] == 0, at, 0.0),
                              None)

    def restart(self, basis: BasisSet):
        if not isinstance(basis.domain, Disk):
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

    def w(x, y):
        return bilinear(values,
                        (np.asarray(x, dtype=float) - x_lo) / (x_hi - x_lo),
                        (np.asarray(y, dtype=float) - y_lo) / (y_hi - y_lo))

    return w


# Module-level entry points: the CLI, numrange and the quadrature anchors call
# the measure through these names, and perfbench/tracer.py wraps them to time
# and count the layer.

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
    machinery operates.  The literal reading, the first k modes of the raw
    enumeration, is not used: on the disk and on every rectangle the second
    mode (an angular mode, or two half-waves along one side) has zero mean,
    so the literal threshold is 0 for every k >= 2.
    """

    passed: bool
    k: int
    v_norm: float
    threshold: float
    margin: float
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
    v = spec.coefficients(basis)
    v_norm = math.sqrt(v @ v)
    zero_mean_ok = abs(float(v @ basis.one_coeffs)) <= _MASS_TOL
    lower_bound_ok = bool(np.min(spec.node_values(basis)) >= -_POINTWISE_TOL)

    if isinstance(spec.base, UniformMeasure):
        ocs = np.abs(basis.one_coeffs)
        live = ocs[ocs > _INERT_TOL]
        if len(live) >= k:
            threshold = float(np.min(live[:k]) / basis.domain.area)
        else:
            threshold = 0.0
        base_kind = "uniform"
    else:
        threshold = basis.domain.area ** -0.5
        base_kind = "ground_state"

    small_ok = v_norm < threshold
    passed = zero_mean_ok and lower_bound_ok and small_ok
    return AdmissibilityCertificate(
        passed=passed, k=k, v_norm=v_norm, threshold=threshold,
        margin=threshold - v_norm, zero_mean_ok=zero_mean_ok,
        lower_bound_ok=lower_bound_ok, base_kind=base_kind)
