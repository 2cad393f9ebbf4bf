"""Domain geometry, closed-form Dirichlet eigenbases and quadrature rules.

Two planar domains are supported with unit diffusion matrix: the unit disk
(`Disk`) and an axis-aligned rectangle anchored at the origin (`Rectangle`).
Both admit explicit Dirichlet eigenpairs, which is what makes every
downstream spectral check exact up to series truncation:

* rectangle ``(0,a) x (0,b)``: eigenvalues ``(m pi/a)^2 + (n pi/b)^2`` with
  product-sine eigenfunctions,
* unit disk: eigenvalues ``j_{m,k}^2`` (squared Bessel zeros) with
  ``J_m(j_{m,k} r) {cos,sin}(m theta)`` eigenfunctions.

Radial disk modes are normalised against the signed value ``J_1(j_{0,k})``
so that every mean coefficient ``(1, chi)`` comes out positive; the ground
state is positive either way.

Each domain class owns every fact that differs between the two shapes: the
mode enumeration, values, gradients and mean coefficients, the tensor and
boundary-layer quadrature rules, the torsion anchors, and the walk's
interior test, uniform sampler and occupation cells.  The rest of the
package calls the domain instead of asking which one it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bessel import bessel_zeros, jv
from .errors import EmptyBasisError, EvaluationError, ResolutionError

# Clustering tolerance for grouping equal eigenvalues, relative to 1 + lambda.
CLUSTER_RTOL = 1e-9


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Tensor quadrature over the domain, with its 1-D factors retained."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    axes: tuple          # read by the domain that built the rule

    @property
    def n_nodes(self) -> int:
        return self.x.size

    def integrate(self, values) -> complex:
        values = np.asarray(values)
        if not np.all(np.isfinite(values)):
            raise EvaluationError("non-finite integrand value at a quadrature node")
        return np.sum(self.w * values)


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    The arrays are shared by every caller, so they are returned read-only.
    """
    t, w = leggauss(n)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def _gl_nodes(n: int, lo: float, hi: float):
    t, w = _leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (t + 1.0), half * w


def _polar_rule(r, w_r, n_theta: int):
    """Radii ``r`` with weights ``w_r`` (Jacobian included) times
    ``n_theta`` equispaced angles: flat ``(x, y, w)`` and the angles."""
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    rr = np.repeat(r, n_theta)
    tt = np.tile(theta, r.size)
    w = np.repeat(w_r, n_theta) * (2.0 * math.pi / n_theta)
    return rr * np.cos(tt), rr * np.sin(tt), w, theta


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mode:
    """One Dirichlet eigenpair with its mean coefficient ``(1, chi)``;
    the domain evaluates it from its closed-form constants ``params``."""

    index: int
    eigenvalue: float
    label: tuple
    one_coeff: float
    domain: Domain = field(repr=False)
    params: tuple = field(repr=False)

    def evaluate(self, x, y):
        return self.domain.mode_values((self,), np.asarray(x, dtype=float),
                                       np.asarray(y, dtype=float))[0]

    def gradient(self, x, y):
        """Cartesian gradient, for quadrature of Dirichlet forms.

        Angular disk modes are singular at the origin in polar form; callers
        must keep r > 0 (interior quadrature nodes always do).
        """
        return self.domain.mode_gradient(self, np.asarray(x, dtype=float),
                                         np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# Dirichlet solves with constant data (secular tail anchors)
# ---------------------------------------------------------------------------

_RECT_SERIES_TERMS = 6001        # odd orders up to this bound; tail < 1e-12


def _cosh_ratio(kappa, t, h):
    # cosh(kappa t)/cosh(kappa h) for |t| <= h, overflow-safe
    return ((np.exp(kappa * (t - h)) + np.exp(-kappa * (t + h)))
            / (1.0 + np.exp(-2.0 * kappa * h)))


def _sinh_ratio(kappa, t, h):
    return ((np.exp(kappa * (t - h)) - np.exp(-kappa * (t + h)))
            / (1.0 + np.exp(-2.0 * kappa * h)))


def _separable_series(x, y, kap, y_factor):
    """``sum_m sin(kap_m x) * y_factor(y)[m]`` at the points ``(x, y)``.

    Sum factorisation (Orszag 1980): the sines are evaluated on the distinct
    x values and ``y_factor`` on the distinct y values, and one
    (n_x x M)(M x n_y) product tabulates the series on their tensor grid,
    from which the points are gathered.  On a tensor rule the M (n_x + n_y)
    transcendental calls replace M n_x n_y of them.  Memory scales with
    (distinct x) x (distinct y), so n scattered points make an n x n table.
    """
    ux, ix = np.unique(x, return_inverse=True)
    uy, iy = np.unique(y, return_inverse=True)
    table = np.sin(np.multiply.outer(ux, kap)) @ y_factor(uy)
    return table[ix.ravel(), iy.ravel()].reshape(x.shape)


def _points(x, y):
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    return np.atleast_1d(x), np.atleast_1d(y)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------
#
# Disk and Rectangle answer the same calls.  ``area`` is the Lebesgue
# measure, ``boundary_weight`` the integral of ``n . a n`` over the boundary
# (the perimeter for identity diffusion), ``bounding_box`` is
# ``(x_lo, x_hi, y_lo, y_hi)`` and ``boundary_distance`` the rho of the
# boundary-layer probes.  ``modes(cutoff)`` lists ``(eigenvalue, label,
# params)`` up to the cutoff and ``mean_coefficient(params)`` is ``(1, chi)``.
# For the restart walk, ``outside`` is true within ``btol`` of the boundary
# or beyond, ``uniform_point`` maps two uniforms on (0, 1] to uniform points
# and their bounding-box fractions, and occupation cells are numbered
# ``0 .. n_cells(n_bins) - 1``.

@dataclass(frozen=True)
class Disk:
    """The unit disk (diffusion matrix is the identity)."""

    area = math.pi
    boundary_weight = 2.0 * math.pi
    incenter = (0.0, 0.0)
    inradius = 1.0
    bounding_box = (-1.0, 1.0, -1.0, 1.0)

    def boundary_distance(self, x, y):
        return 1.0 - np.hypot(np.asarray(x, dtype=float),
                              np.asarray(y, dtype=float))

    def modes(self, cutoff: float) -> list:
        orders, index, zeros = bessel_zeros(math.sqrt(cutoff))
        # the radial norm keeps the sign of J_1(j_{0,k})
        norms = (np.where(orders == 0, math.sqrt(math.pi),
                          math.sqrt(math.pi / 2.0)) * jv(orders + 1, zeros))
        out = []
        for m, k, j, norm in zip(orders.tolist(), index.tolist(),
                                 zeros.tolist(), norms.tolist()):
            for kind in ("rad",) if m == 0 else ("cos", "sin"):
                out.append((j * j, (m, k, kind), (m, j, norm)))
        return out

    def mean_coefficient(self, params) -> float:
        m, j, _ = params
        if m != 0:
            return 0.0
        # integral J0(j r) r dr = J1(j)/j; the signed normalisation cancels J1
        return 2.0 * math.sqrt(math.pi) / j

    @staticmethod
    def _radial(modes, r):
        """``J_m(j r) / norm`` of every mode (rows) at the radii ``r``, in
        one Bessel call."""
        m, j, norm = (np.array(p) for p in zip(*(mode.params for mode in modes)))
        e = (slice(None),) + (None,) * np.ndim(r)
        return jv(m[e], j[e] * r) / norm[e]

    @staticmethod
    def _angular(modes, theta):
        """``cos(m theta)`` or ``sin(m theta)`` of every mode (rows); 1 for
        the radial modes."""
        e = (slice(None),) + (None,) * np.ndim(theta)
        m = np.array([mode.params[0] for mode in modes])[e]
        sine = np.array([mode.label[2] == "sin" for mode in modes])[e]
        return np.where(sine, np.sin(m * theta), np.cos(m * theta))

    def mode_values(self, modes, x, y):
        """Values of ``modes`` at the points ``(x, y)``, one row per mode."""
        return (self._radial(modes, np.hypot(x, y))
                * self._angular(modes, np.arctan2(y, x)))

    def mode_gradient(self, mode: Mode, x, y):
        m, j, norm = mode.params
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        if m == 0:
            drad = -j * jv(1, j * r) / norm
            return (drad * np.cos(theta), drad * np.sin(theta))
        below, at, above = jv(np.array([m - 1, m, m + 1])[:, None], j * r)
        rad = at / norm
        drad = j * 0.5 * (below - above) / norm
        if mode.label[2] == "cos":
            ang, dang = np.cos(m * theta), -m * np.sin(m * theta)
        else:
            ang, dang = np.sin(m * theta), m * np.cos(m * theta)
        fr = drad * ang
        ft = rad * dang / r
        return (fr * np.cos(theta) - ft * np.sin(theta),
                fr * np.sin(theta) + ft * np.cos(theta))

    def quadrature(self, n_r: int, n_theta: int) -> QuadratureRule:
        """Gauss-Legendre in r times the trapezoid rule in theta."""
        r, wr = _gl_nodes(n_r, 0.0, 1.0)
        x, y, w, theta = _polar_rule(r, wr * r, n_theta)
        return QuadratureRule(x, y, w, (r, wr, theta))

    def default_quadrature(self, cutoff: float) -> QuadratureRule:
        kmax = math.sqrt(max(cutoff, 1.0))
        n_r = max(64, int(math.ceil(1.2 * kmax)) + 24)
        n_theta = max(128, 4 * int(math.ceil(kmax)) + 16)
        return self.quadrature(n_r, n_theta)

    def check_resolution(self, cutoff: float, rule: QuadratureRule):
        kmax = math.sqrt(max(cutoff, 1.0))
        r, _, theta = rule.axes
        m_max = int(kmax)  # j_{m,1} > m, so angular orders never exceed sqrt(cutoff)
        if r.size < int(math.ceil(4.0 * kmax / math.pi)) or theta.size < 2 * m_max + 2:
            raise ResolutionError(
                f"quadrature ({r.size} radial x {theta.size} angular nodes) cannot "
                f"resolve modes up to cutoff {cutoff}")

    def mode_rows(self, modes, rule: QuadratureRule) -> np.ndarray:
        """Values of ``modes`` at every node: O(n_modes (n_r + n_theta))
        Bessel and trig evaluations on the tensor rule."""
        r, _, theta = rule.axes
        rows = (self._radial(modes, r)[:, :, None]
                * self._angular(modes, theta)[:, None, :])
        return rows.reshape(len(modes), rule.n_nodes)

    def moments(self, values, basis: BasisSet) -> np.ndarray:
        """Moments of node-sampled ``values`` against every basis mode,
        walking the modes in blocks."""
        rule = basis.quadrature
        weighted = rule.w * values
        out = np.empty(len(basis))
        block = 256
        for lo in range(0, len(basis), block):
            out[lo:lo + block] = self.mode_rows(
                basis.modes[lo:lo + block], rule) @ weighted
        return out

    def layer_quadrature(self, eps: float, n_s: int, n_tan: int):
        s, ws = _gl_nodes(n_s, 0.0, 1.0)
        r = 1.0 - eps * s
        x, y, w, _ = _polar_rule(r, ws * eps * r, n_tan)
        return x, y, w, np.repeat(s, n_tan)

    def torsion_function(self) -> Callable:
        def g(x, y):
            r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
            return (1.0 - r2) / 4.0
        return g

    def torsion_second(self) -> Callable:
        def g2(x, y):
            r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
            return (3.0 - 4.0 * r2 + r2 * r2) / 64.0
        return g2

    def outside(self, px, py, btol):
        return px * px + py * py >= (1.0 - btol) ** 2

    def uniform_point(self, u1, u2):
        rr = np.sqrt(u1)
        px = rr * np.cos(2.0 * math.pi * u2)
        py = rr * np.sin(2.0 * math.pi * u2)
        return px, py, 0.5 * (px + 1.0), 0.5 * (py + 1.0)

    def mask_outside(self, x, y, values):
        """``values`` on a lattice of the bounding box, zero off the disk."""
        return np.where(x ** 2 + y ** 2 < 1.0, values, 0.0)

    def n_cells(self, n_bins: int) -> int:
        return n_bins

    def bin_index(self, bx, by, n_bins: int):
        """Annulus of each point: the cells of ``hypot(bx, by) * n_bins``.
        ``sqrt(bx * bx + by * by)`` differs from ``hypot`` by a few ulp, so
        their floors differ only within 1e-9 of a cell edge, where ``hypot``
        decides."""
        s = np.sqrt(bx * bx + by * by) * n_bins
        near = np.abs(s - np.rint(s)) < 1e-9
        if near.any():
            s[near] = np.hypot(bx[near], by[near]) * n_bins
        return np.minimum(s.astype(int), n_bins - 1)

    def occupation_cells(self, n_bins: int):
        """Radial edges, no y-edges, and the annulus areas."""
        edges = np.linspace(0.0, 1.0, n_bins + 1)
        return edges, None, math.pi * (edges[1:] ** 2 - edges[:-1] ** 2)

    def cell_masses(self, basis: BasisSet, coeffs, edges, edges_y):
        """Integral of ``sum_n coeffs_n chi_n`` over each annulus, by a radial
        Gauss rule; angular modes average out."""
        t, wt = _leggauss(16)
        lo, hi = edges[:-1, None], edges[1:, None]
        r = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t          # (bin, node)
        wr = 0.5 * (hi - lo) * wt
        radial = [i for i, m in enumerate(basis.modes) if m.label[0] == 0]
        vals = np.tensordot(coeffs[radial],
                            self._radial([basis.modes[i] for i in radial], r), 1)
        return 2.0 * math.pi * np.sum(wr * r * vals, axis=1)

    def cell_labels(self, edges, edges_y) -> list[str]:
        e = edges.tolist()
        return [f"{lo!r},{hi!r}" for lo, hi in zip(e, e[1:])]


@dataclass(frozen=True)
class Rectangle:
    """The rectangle ``(0, side_x) x (0, side_y)`` (identity diffusion)."""

    side_x: float
    side_y: float

    def __post_init__(self):
        if self.side_x <= 0 or self.side_y <= 0:
            raise ValueError("rectangle sides must be positive")

    area = property(lambda self: self.side_x * self.side_y)
    boundary_weight = property(lambda self: 2.0 * (self.side_x + self.side_y))
    incenter = property(lambda self: (self.side_x / 2.0, self.side_y / 2.0))
    inradius = property(lambda self: min(self.side_x, self.side_y) / 2.0)
    bounding_box = property(lambda self: (0.0, self.side_x, 0.0, self.side_y))

    def boundary_distance(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.minimum(np.minimum(x, self.side_x - x),
                          np.minimum(y, self.side_y - y))

    def modes(self, cutoff: float) -> list:
        a, b = self.side_x, self.side_y
        m_max = int(math.floor(a * math.sqrt(cutoff) / math.pi)) + 1
        n_max = int(math.floor(b * math.sqrt(cutoff) / math.pi)) + 1
        out = []
        for m in range(1, m_max + 1):
            for n in range(1, n_max + 1):
                lam = (m * math.pi / a) ** 2 + (n * math.pi / b) ** 2
                if lam <= cutoff:
                    out.append((lam, (m, n), (m, n)))
        return out

    def mean_coefficient(self, params) -> float:
        m, n = params
        if m % 2 == 0 or n % 2 == 0:
            return 0.0
        a, b = self.side_x, self.side_y
        return 8.0 * math.sqrt(a * b) / (math.pi ** 2 * m * n)

    def mode_values(self, modes, x, y):
        """Values of ``modes`` at the points ``(x, y)``, one row per mode."""
        e = (slice(None),) + (None,) * np.broadcast(x, y).ndim
        m, n = (np.array(p)[e] for p in zip(*(mode.params for mode in modes)))
        a, b = self.side_x, self.side_y
        return (2.0 / math.sqrt(a * b)
                * np.sin(m * math.pi * x / a)
                * np.sin(n * math.pi * y / b))

    def mode_gradient(self, mode: Mode, x, y):
        m, n = mode.params
        a, b = self.side_x, self.side_y
        c = 2.0 / math.sqrt(a * b)
        sx = np.sin(m * math.pi * x / a)
        cx = np.cos(m * math.pi * x / a)
        sy = np.sin(n * math.pi * y / b)
        cy = np.cos(n * math.pi * y / b)
        return (c * (m * math.pi / a) * cx * sy,
                c * (n * math.pi / b) * sx * cy)

    def quadrature(self, n_x: int, n_y: int) -> QuadratureRule:
        """Tensor Gauss-Legendre rule."""
        gx, wx = _gl_nodes(n_x, 0.0, self.side_x)
        gy, wy = _gl_nodes(n_y, 0.0, self.side_y)
        xx = np.repeat(gx, n_y)
        yy = np.tile(gy, n_x)
        w = np.repeat(wx, n_y) * np.tile(wy, n_x)
        return QuadratureRule(xx, yy, w, (gx, wx, gy, wy))

    def default_quadrature(self, cutoff: float) -> QuadratureRule:
        kmax = math.sqrt(max(cutoff, 1.0))
        n_x = max(64, 2 * int(math.ceil(self.side_x * kmax / math.pi)) + 24)
        n_y = max(64, 2 * int(math.ceil(self.side_y * kmax / math.pi)) + 24)
        return self.quadrature(n_x, n_y)

    def check_resolution(self, cutoff: float, rule: QuadratureRule):
        kmax = math.sqrt(max(cutoff, 1.0))
        gx, _, gy, _ = rule.axes
        need_x = int(math.ceil(2.0 * self.side_x * kmax / math.pi))
        need_y = int(math.ceil(2.0 * self.side_y * kmax / math.pi))
        if gx.size < need_x or gy.size < need_y:
            raise ResolutionError(
                f"quadrature ({gx.size} x {gy.size} nodes) cannot resolve modes "
                f"up to cutoff {cutoff}")

    def mode_rows(self, modes, rule: QuadratureRule) -> np.ndarray:
        """Values of ``modes`` at every node, as outer products of sines."""
        gx, _, gy, _ = rule.axes
        a, b = self.side_x, self.side_y
        c = 2.0 / math.sqrt(a * b)
        rows = np.empty((len(modes), rule.n_nodes))
        for k, mode in enumerate(modes):
            m, n = mode.params
            sx = np.sin(m * math.pi * gx / a)
            sy = np.sin(n * math.pi * gy / b)
            rows[k] = c * np.outer(sx, sy).ravel()
        return rows

    def moments(self, values, basis: BasisSet) -> np.ndarray:
        """Moments of node-sampled ``values`` against every basis mode, by
        the separable sine transform (two small matrix products), so no
        dense mode matrix is ever materialised."""
        rule = basis.quadrature
        weighted = rule.w * values
        gx, _, gy, _ = rule.axes
        a, b = self.side_x, self.side_y
        grid = weighted.reshape(gx.size, gy.size)
        m_max = max(m.params[0] for m in basis.modes)
        n_max = max(m.params[1] for m in basis.modes)
        sx = np.sin(np.outer(np.arange(1, m_max + 1), math.pi * gx / a))
        sy = np.sin(np.outer(np.arange(1, n_max + 1), math.pi * gy / b))
        table = (2.0 / math.sqrt(a * b)) * (sx @ grid @ sy.T)
        return np.array([table[m.params[0] - 1, m.params[1] - 1]
                         for m in basis.modes])

    def layer_quadrature(self, eps: float, n_s: int, n_tan: int):
        a, b = self.side_x, self.side_y
        if 2.0 * eps >= min(a, b):
            raise ValueError("layer width exceeds the inradius")
        t, wt = _gl_nodes(n_s, 0.0, eps)                 # distance from the side
        xs, ys, ws_, ss = [], [], [], []

        def strip(lo, hi, horizontal, near_low):
            u, wu = _gl_nodes(n_tan, lo, hi)
            if horizontal:
                xv = np.repeat(u, n_s)
                yv = np.tile(t if near_low else b - t, n_tan)
            else:
                yv = np.repeat(u, n_s)
                xv = np.tile(t if near_low else a - t, n_tan)
            wv = np.repeat(wu, n_s) * np.tile(wt, n_tan)
            xs.append(xv); ys.append(yv); ws_.append(wv)
            ss.append(np.tile(t, n_tan) / eps)

        strip(eps, a - eps, True, True)
        strip(eps, a - eps, True, False)
        strip(eps, b - eps, False, True)
        strip(eps, b - eps, False, False)

        cx, cwx = _gl_nodes(n_s, 0.0, eps)
        X, Y = np.meshgrid(cx, cx, indexing="ij")
        WC = np.outer(cwx, cwx)
        for ox, oy, sx, sy in ((0, 0, 1, 1), (a, 0, -1, 1), (0, b, 1, -1), (a, b, -1, -1)):
            xv = ox + sx * X.ravel()
            yv = oy + sy * Y.ravel()
            xs.append(xv); ys.append(yv); ws_.append(WC.ravel())
            ss.append(np.minimum(X.ravel(), Y.ravel()) / eps)

        return (np.concatenate(xs), np.concatenate(ys),
                np.concatenate(ws_), np.concatenate(ss))

    def _series(self):
        """Odd orders, their wavenumbers and the torsion amplitudes."""
        a = self.side_x
        ms = np.arange(1, _RECT_SERIES_TERMS, 2, dtype=float)
        return ms, ms * math.pi / a, 4.0 * a * a / (math.pi ** 3 * ms ** 3)

    def torsion_function(self) -> Callable:
        a, b = self.side_x, self.side_y
        _, kap, amp = self._series()

        def y_factor(y):
            return amp[:, None] * _cosh_ratio(kap[:, None], y - b / 2.0, b / 2.0)

        def g(x, y):
            x, y = _points(x, y)
            return x * (a - x) / 2.0 - _separable_series(x, y, kap, y_factor)

        return g

    def torsion_second(self) -> Callable:
        a, b = self.side_x, self.side_y
        ms, kap, amp = self._series()
        cm = 4.0 * a ** 4 / (math.pi ** 5 * ms ** 5)          # sine coefficients of U1
        bcoef = -(cm + (amp * b / (4.0 * kap)) * np.tanh(kap * b / 2.0))

        def y_factor(y):
            t = y - b / 2.0
            return ((amp / (2.0 * kap))[:, None] * t
                    * _sinh_ratio(kap[:, None], t, b / 2.0)
                    + bcoef[:, None] * _cosh_ratio(kap[:, None], t, b / 2.0))

        def g2(x, y):
            x, y = _points(x, y)
            u1 = (x ** 4 - 2.0 * a * x ** 3 + a ** 3 * x) / 24.0
            return u1 + _separable_series(x, y, kap, y_factor)

        return g2

    def outside(self, px, py, btol):
        return ~((btol < px) & (px < self.side_x - btol)
                 & (btol < py) & (py < self.side_y - btol))

    def uniform_point(self, u1, u2):
        return self.side_x * u1, self.side_y * u2, u1, u2

    def mask_outside(self, x, y, values):
        """``values`` on a lattice of the bounding box, all of whose points
        lie in the closed rectangle."""
        return values

    def n_cells(self, n_bins: int) -> int:
        return n_bins * n_bins

    def bin_index(self, bx, by, n_bins: int):
        ix = np.minimum((bx / self.side_x * n_bins).astype(int), n_bins - 1)
        iy = np.minimum((by / self.side_y * n_bins).astype(int), n_bins - 1)
        return ix * n_bins + iy

    def occupation_cells(self, n_bins: int):
        """x-edges, y-edges and the cell areas."""
        edges = np.linspace(0.0, self.side_x, n_bins + 1)
        edges_y = np.linspace(0.0, self.side_y, n_bins + 1)
        dx = edges[1] - edges[0]
        dy = edges_y[1] - edges_y[0]
        return edges, edges_y, np.full(n_bins * n_bins, dx * dy)

    def cell_masses(self, basis: BasisSet, coeffs, ex, ey):
        """Integral of ``sum_n coeffs_n chi_n`` over each cell, by a tensor
        Gauss rule per cell."""
        t, wt = _leggauss(6)
        nb = ex.size - 1
        live = np.nonzero(np.abs(coeffs) > 1e-13)[0]
        out = np.empty(nb * nb)
        for i in range(nb):
            xs = 0.5 * (ex[i] + ex[i + 1]) + 0.5 * (ex[i + 1] - ex[i]) * t
            wx = 0.5 * (ex[i + 1] - ex[i]) * wt
            for j in range(nb):
                ys = 0.5 * (ey[j] + ey[j + 1]) + 0.5 * (ey[j + 1] - ey[j]) * t
                wy = 0.5 * (ey[j + 1] - ey[j]) * wt
                X, Y = np.meshgrid(xs, ys, indexing="ij")
                vals = np.zeros_like(X)
                for k in live:
                    vals += coeffs[k] * basis.modes[k].evaluate(X, Y)
                out[i * nb + j] = float(np.sum(np.outer(wx, wy) * vals))
        return out

    def cell_labels(self, ex, ey) -> list[str]:
        ex, ey = ex.tolist(), ey.tolist()
        return [f"({ex[i]!r};{ey[j]!r}),({ex[i + 1]!r};{ey[j + 1]!r})"
                for i in range(len(ex) - 1) for j in range(len(ey) - 1)]


Domain = Union[Disk, Rectangle]


def unit_disk() -> Disk:
    return Disk()


def rectangle(side_x: float, side_y: float) -> Rectangle:
    return Rectangle(float(side_x), float(side_y))


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisSet:
    """All Dirichlet eigenpairs with eigenvalue <= cutoff, globally ordered."""

    domain: Domain
    modes: tuple[Mode, ...]
    cutoff: float
    quadrature: QuadratureRule
    eigenvalues: np.ndarray = field(repr=False)
    one_coeffs: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.modes)

    @cached_property
    def _cluster_table(self):
        groups: list[list[int]] = []
        for i, lam in enumerate(self.eigenvalues):
            if groups and lam - self.eigenvalues[groups[-1][0]] <= CLUSTER_RTOL * (1.0 + lam):
                groups[-1].append(i)
            else:
                groups.append([i])
        means = np.array([np.mean(self.eigenvalues[g]) for g in groups])
        means.flags.writeable = False
        return tuple(tuple(g) for g in groups), means

    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """Indices grouped by equal eigenvalue (tolerance 1e-9 * (1+lambda)),
        computed once per basis."""
        return self._cluster_table[0]

    def cluster_means(self) -> np.ndarray:
        """Mean eigenvalue of each cluster, ascending (read-only)."""
        return self._cluster_table[1]


def build_basis(domain: Domain, cutoff: float,
                quadrature: QuadratureRule | None = None) -> BasisSet:
    """Enumerate all Dirichlet eigenpairs with eigenvalue <= cutoff.

    Ties in eigenvalue are broken by lexicographic label order so the
    enumeration is deterministic.  The default rule is sized for products
    of modes up to the cutoff (>= 4 nodes per oscillation of the highest
    mode per axis).
    """
    raw = domain.modes(cutoff)
    if not raw:
        raise EmptyBasisError(
            f"cutoff {cutoff} lies below the first eigenvalue of the domain")
    raw.sort(key=lambda t: (t[0], t[1]))

    rule = quadrature if quadrature is not None else domain.default_quadrature(cutoff)
    domain.check_resolution(cutoff, rule)

    modes = tuple(Mode(idx, lam, label, domain.mean_coefficient(params),
                       domain, params)
                  for idx, (lam, label, params) in enumerate(raw))
    eigs = np.array([m.eigenvalue for m in modes])
    ocs = np.array([m.one_coeff for m in modes])
    return BasisSet(domain, modes, float(cutoff), rule, eigs, ocs)


def quadrature_integral(f: Callable, domain: Domain,
                        rule: QuadratureRule | None = None,
                        cutoff: float = 400.0) -> complex:
    """Integrate ``f(x, y)`` over the domain with the tensor rule."""
    if rule is None:
        rule = domain.default_quadrature(cutoff)
    return rule.integrate(f(rule.x, rule.y))


# Module-level entry points: secular and numrange call the domain through
# these names, and perfbench/tracer.py wraps them to time and count the layers.

def layer_quadrature(domain: Domain, eps: float, n_s: int = 32,
                     n_tan: int = 256):
    """Quadrature over the collar of width eps along the boundary.

    Returns flat arrays ``(x, y, w, s)`` where ``s = rho/eps`` is the scaled
    boundary distance at each node.  The rectangle collar is split into four
    side strips plus four exact corner squares, so the rule covers the collar
    without double counting.
    """
    return domain.layer_quadrature(eps, n_s, n_tan)


def torsion_function(domain: Domain) -> Callable:
    """Solution of -Laplace u = 1 with zero boundary values."""
    return domain.torsion_function()


def torsion_second(domain: Domain) -> Callable:
    """Solution of -Laplace u = torsion_function with zero boundary values."""
    return domain.torsion_second()
