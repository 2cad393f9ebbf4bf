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
mode enumeration, values and mean coefficients, the tensor and
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
    """Quadrature over the domain that keeps its tensor structure.

    ``blocks`` are broadcastable ``(x, y)`` pairs, such as the open mesh
    ``(gx[:, None], gy[None, :])`` of a tensor rule.  A block's nodes are its
    broadcast, raveled in C order, and the rule's nodes are its blocks' in
    turn: the order of the flat weights ``w``.  ``axes`` holds the 1-D
    factors of a node rule, read by the domain that built it.
    """

    blocks: tuple
    w: np.ndarray
    axes: tuple = ()

    @property
    def n_nodes(self) -> int:
        return self.w.size

    def values(self, f: Callable) -> np.ndarray:
        """``f(x, y)`` at every node, flat in node order.

        ``f`` is called once per block on the block's factors, so an
        integrand that broadcasts, such as a product of sines, costs the
        factors' transcendental calls rather than one per node.  A result
        that covers only part of the block's shape, such as a constant, is
        broadcast to all of it.
        """
        parts = []
        for x, y in self.blocks:
            vals = np.asarray(f(x, y))
            shape = np.broadcast_shapes(np.shape(x), np.shape(y))
            if vals.shape != shape:
                vals = np.broadcast_to(vals, shape)
            parts.append(vals.ravel())
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    @cached_property
    def x(self) -> np.ndarray:
        """Flat x coordinates of the nodes, for callers that need the points
        themselves rather than an integrand's values."""
        return self.values(lambda x, y: x)

    @cached_property
    def y(self) -> np.ndarray:
        return self.values(lambda x, y: y)

    def integrate(self, values) -> complex:
        values = np.asarray(values)
        if not np.all(np.isfinite(values)):
            raise EvaluationError("non-finite integrand value at a quadrature node")
        return np.sum(self.w * values)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    The arrays are shared by every caller, so they are returned read-only.
    """
    t, w = leggauss(n)
    return _read_only(t), _read_only(w)


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
# Dirichlet solves with constant data (secular tail anchors)
# ---------------------------------------------------------------------------

_RECT_SERIES_TERMS = 6001        # odd orders up to this bound; tail < 1e-12


_TINY = 2.2250738585072014e-308       # smallest normal float64
_LOG_TINY = -708.3964185322641         # exp(x) is normal from here up


def _exp_normal(x):
    """``exp(x)`` where that is a normal float (or NaN), 0 where it would be
    subnormal: exp is slow there, and such terms lie below the last bit of
    every torsion sum they enter."""
    return np.exp(x, out=np.zeros(np.shape(x)), where=~(x < _LOG_TINY))


def _hyperbolic_parts(kappa, t, h):
    """``(p, q, d)`` with ``cosh(kappa t)/cosh(kappa h) = (p + q)/d`` and
    ``sinh(kappa t)/cosh(kappa h) = (p - q)/d`` for ``|t| <= h``: the
    overflow-safe quotients share their three exponentials."""
    return (_exp_normal(kappa * (t - h)), _exp_normal(-kappa * (t + h)),
            1.0 + _exp_normal(-2.0 * kappa * h))


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
    factors = y_factor(uy)
    # subnormal factors send the BLAS product down a slow path and leave
    # the bits of its sums unchanged
    factors[np.abs(factors) < _TINY] = 0.0
    table = np.sin(np.multiply.outer(ux, kap)) @ factors
    return table[ix.ravel(), iy.ravel()].reshape(x.shape)


def _sine_cell_integrals(orders: int, edges, side: float) -> np.ndarray:
    """Integral of ``sin(m pi x / side)`` between consecutive ``edges``,
    one row per order ``m = 1 .. orders``."""
    m = np.arange(1, orders + 1)[:, None]
    return -side / (m * math.pi) * np.diff(np.cos(m * math.pi * edges / side),
                                           axis=1)


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
# and their bounding-box fractions, and ``bin_index`` numbers the occupation
# cells of ``n_bins`` in the order of ``cell_areas``, ``cell_masses`` and
# ``cell_labels``.

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
                out.append((j * j, (m, k, kind), (m, j, norm, kind == "sin")))
        return out

    def mean_coefficient(self, params) -> float:
        m, j = params[:2]
        if m != 0:
            return 0.0
        # integral J0(j r) r dr = J1(j)/j; the signed normalisation cancels J1
        return 2.0 * math.sqrt(math.pi) / j

    @staticmethod
    def _radial(params, r):
        """``J_m(j r) / norm`` of every row ``(m, j, norm, sine)`` of
        ``params`` at the radii ``r``, in one Bessel call."""
        e = (slice(None),) + (None,) * np.ndim(r)
        m, j, norm = params[:, 0].astype(int), params[:, 1], params[:, 2]
        return jv(m[e], j[e] * r) / norm[e]

    @staticmethod
    def _angular(params, theta):
        """``sin(m theta)`` for the rows with the sine flag, ``cos(m theta)``
        for the others (1 for the radial modes)."""
        e = (slice(None),) + (None,) * np.ndim(theta)
        m, sine = params[:, 0][e], params[:, 3][e] != 0
        return np.where(sine, np.sin(m * theta), np.cos(m * theta))

    def mode_values(self, params, x, y):
        """Values at ``(x, y)`` of each mode of the ``params`` rows."""
        return (self._radial(params, np.hypot(x, y))
                * self._angular(params, np.arctan2(y, x)))

    def quadrature(self, n_r: int, n_theta: int) -> QuadratureRule:
        """Gauss-Legendre in r times the trapezoid rule in theta."""
        r, wr = _gl_nodes(n_r, 0.0, 1.0)
        x, y, w, theta = _polar_rule(r, wr * r, n_theta)
        return QuadratureRule(((x, y),), w, (r, wr, theta))

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

    def moments(self, values, basis: BasisSet) -> np.ndarray:
        """Moments of node-sampled ``values`` against every basis mode, on
        the rule's factors: the weighted values meet one angular row per
        distinct (order, sine) on the angles, then each mode's radial row on
        the radii.  The reductions are numpy's, not BLAS products, whose
        bits depend on the thread count."""
        rule = basis.quadrature
        r, _, theta = rule.axes
        weighted = (rule.w * values).reshape(r.size, theta.size)
        _, first, which = np.unique(basis.params[:, [0, 3]], axis=0,
                                    return_index=True, return_inverse=True)
        angular = np.einsum("ik,dk->di", weighted,
                            self._angular(basis.params[first], theta))
        return np.einsum("mi,mi->m", self._radial(basis.params, r),
                         angular[which.ravel()])

    def layer_quadrature(self, eps: float, n_s: int, n_tan: int):
        s, ws = _gl_nodes(n_s, 0.0, 1.0)
        r = 1.0 - eps * s
        x, y, w, _ = _polar_rule(r, ws * eps * r, n_tan)
        return QuadratureRule(((x, y),), w), np.repeat(s, n_tan)

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

    def torsion_integrals(self) -> tuple[float, float]:
        """``(int g, int g2)``: 2 pi times the radial integrals of
        ``(1 - r^2)/4`` and ``(3 - 4 r^2 + r^4)/64`` against ``r dr``."""
        return math.pi / 8.0, math.pi / 48.0

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

    @staticmethod
    def _edges(n_bins: int) -> np.ndarray:
        return np.linspace(0.0, 1.0, n_bins + 1)

    def cell_areas(self, n_bins: int) -> np.ndarray:
        edges = self._edges(n_bins)
        return math.pi * (edges[1:] ** 2 - edges[:-1] ** 2)

    def cell_masses(self, basis: BasisSet, coeffs, n_bins: int) -> np.ndarray:
        """Exact integral of ``sum_n coeffs_n chi_n`` over each annulus: the
        angular modes average out, and ``r J_0(j r)`` has the primitive
        ``r J_1(j r) / j``, one Bessel call at the edges."""
        radial = basis.params[:, 0] == 0
        _, j, norm, _ = basis.params[radial].T
        edges = self._edges(n_bins)
        primitive = edges * jv(1, np.outer(j, edges)) / j[:, None]
        return 2.0 * math.pi * np.einsum(
            "k,ki->i", coeffs[radial] / norm, np.diff(primitive, axis=1))

    def cell_labels(self, n_bins: int) -> list[str]:
        e = self._edges(n_bins).tolist()
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

    def mode_values(self, params, x, y):
        """Values at ``(x, y)`` of each mode of the ``params`` rows."""
        e = (slice(None),) + (None,) * np.broadcast(x, y).ndim
        m, n = params[:, 0][e], params[:, 1][e]
        a, b = self.side_x, self.side_y
        return (2.0 / math.sqrt(a * b)
                * np.sin(m * math.pi * x / a)
                * np.sin(n * math.pi * y / b))

    def quadrature(self, n_x: int, n_y: int) -> QuadratureRule:
        """Tensor Gauss-Legendre rule: one open-mesh block, x along the
        rows."""
        gx, wx = _gl_nodes(n_x, 0.0, self.side_x)
        gy, wy = _gl_nodes(n_y, 0.0, self.side_y)
        return QuadratureRule(((gx[:, None], gy[None, :]),),
                              (wx[:, None] * wy).ravel(), (gx, wx, gy, wy))

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

    def moments(self, values, basis: BasisSet) -> np.ndarray:
        """Moments of node-sampled ``values`` against every basis mode, by
        the separable sine transform (two small matrix products), so no
        dense mode matrix is ever materialised."""
        rule = basis.quadrature
        weighted = rule.w * values
        gx, _, gy, _ = rule.axes
        a, b = self.side_x, self.side_y
        grid = weighted.reshape(gx.size, gy.size)
        m, n = basis.params.T
        sx = np.sin(np.outer(np.arange(1, m.max() + 1), math.pi * gx / a))
        sy = np.sin(np.outer(np.arange(1, n.max() + 1), math.pi * gy / b))
        table = (2.0 / math.sqrt(a * b)) * (sx @ grid @ sy.T)
        return table[m - 1, n - 1]

    def layer_quadrature(self, eps: float, n_s: int, n_tan: int):
        """Four side strips, then four corner squares, each one open-mesh
        block; a strip runs along its side on the first axis and away from
        it on the second."""
        a, b = self.side_x, self.side_y
        if 2.0 * eps >= min(a, b):
            raise ValueError("layer width exceeds the inradius")
        t, wt = _gl_nodes(n_s, 0.0, eps)                 # distance from the side
        u, wu = _gl_nodes(n_tan, eps, a - eps)           # along the x-sides
        v, wv = _gl_nodes(n_tan, eps, b - eps)           # along the y-sides
        d = t[None, :]
        blocks = [(u[:, None], d), (u[:, None], b - d),
                  (d, v[:, None]), (a - d, v[:, None])]
        blocks += [(ox + sx * t[:, None], oy + sy * d)
                   for ox, oy, sx, sy in ((0, 0, 1, 1), (a, 0, -1, 1),
                                          (0, b, 1, -1), (a, b, -1, -1))]
        w = np.concatenate([(wa[:, None] * wt).ravel()
                            for wa in (wu, wu, wv, wv) + (wt,) * 4])
        side_s = np.tile(t / eps, n_tan)
        corner_s = (np.minimum(t[:, None], d) / eps).ravel()
        s = np.concatenate((side_s,) * 4 + (corner_s,) * 4)
        return QuadratureRule(tuple(blocks), w), s

    def _series(self):
        """Odd orders, their wavenumbers and the torsion amplitudes."""
        a = self.side_x
        ms = np.arange(1, _RECT_SERIES_TERMS, 2, dtype=float)
        return ms, ms * math.pi / a, 4.0 * a * a / (math.pi ** 3 * ms ** 3)

    def _second_series(self):
        """Wavenumbers, torsion amplitudes and the cosh coefficients of
        ``torsion_second``'s y factor."""
        a, b = self.side_x, self.side_y
        ms, kap, amp = self._series()
        cm = 4.0 * a ** 4 / (math.pi ** 5 * ms ** 5)          # sine coefficients of U1
        bcoef = -(cm + (amp * b / (4.0 * kap)) * np.tanh(kap * b / 2.0))
        return kap, amp, bcoef

    def torsion_function(self) -> Callable:
        a, b = self.side_x, self.side_y
        _, kap, amp = self._series()

        def y_factor(y):
            p, q, d = _hyperbolic_parts(kap[:, None], y - b / 2.0, b / 2.0)
            return amp[:, None] * ((p + q) / d)

        def g(x, y):
            x, y = _points(x, y)
            return x * (a - x) / 2.0 - _separable_series(x, y, kap, y_factor)

        return g

    def torsion_second(self) -> Callable:
        a, b = self.side_x, self.side_y
        kap, amp, bcoef = self._second_series()

        def y_factor(y):
            t = y - b / 2.0
            p, q, d = _hyperbolic_parts(kap[:, None], t, b / 2.0)
            return ((amp / (2.0 * kap))[:, None] * t * ((p - q) / d)
                    + bcoef[:, None] * ((p + q) / d))

        def g2(x, y):
            x, y = _points(x, y)
            u1 = (x ** 4 - 2.0 * a * x ** 3 + a ** 3 * x) / 24.0
            return u1 + _separable_series(x, y, kap, y_factor)

        return g2

    def torsion_integrals(self) -> tuple[float, float]:
        """``(int g, int g2)``: both torsion series integrated term by term.

        With ``h = b/2``, ``t = y - h`` and ``T = tanh(kap h)``, an odd
        order gives ``int_0^a sin(kap x) dx = 2/kap``, and over ``|t| <= h``
        the y factors give ``int cosh(kap t) dt / cosh(kap h) = 2 T/kap`` and
        ``int t sinh(kap t) dt / cosh(kap h) = 2 (h/kap - T/kap^2)``; the
        polynomial parts give ``a^3 b/12`` and ``b a^5/120``.
        """
        a, b = self.side_x, self.side_y
        h = b / 2.0
        kap, amp, bcoef = self._second_series()
        th = np.tanh(kap * h)
        cosh_int = 2.0 * th / kap
        t_sinh_int = 2.0 * (h / kap - th / kap ** 2)
        g = a ** 3 * b / 12.0 - np.sum((2.0 / kap) * amp * cosh_int)
        g2 = b * a ** 5 / 120.0 + np.sum((2.0 / kap) * (
            (amp / (2.0 * kap)) * t_sinh_int + bcoef * cosh_int))
        return float(g), float(g2)

    def outside(self, px, py, btol):
        return ~((btol < px) & (px < self.side_x - btol)
                 & (btol < py) & (py < self.side_y - btol))

    def uniform_point(self, u1, u2):
        return self.side_x * u1, self.side_y * u2, u1, u2

    def mask_outside(self, x, y, values):
        """``values`` on a lattice of the bounding box, all of whose points
        lie in the closed rectangle."""
        return values

    def bin_index(self, bx, by, n_bins: int):
        """Cell of each point, clamped to the grid: an exit step's midpoint
        lies up to half a step outside the wall."""
        ix = np.clip((bx / self.side_x * n_bins).astype(int), 0, n_bins - 1)
        iy = np.clip((by / self.side_y * n_bins).astype(int), 0, n_bins - 1)
        return ix * n_bins + iy

    def _edges(self, n_bins: int):
        """x- and y-edges: cell ``i * n_bins + j`` is x-interval i times
        y-interval j."""
        return (np.linspace(0.0, self.side_x, n_bins + 1),
                np.linspace(0.0, self.side_y, n_bins + 1))

    def cell_areas(self, n_bins: int) -> np.ndarray:
        ex, ey = self._edges(n_bins)
        return np.full(n_bins * n_bins, (ex[1] - ex[0]) * (ey[1] - ey[0]))

    def cell_masses(self, basis: BasisSet, coeffs, n_bins: int) -> np.ndarray:
        """Exact integral of ``sum_n coeffs_n chi_n`` over each cell,
        ``(2 / sqrt(ab)) IX^T C IY`` with C the (m, n) table of ``coeffs``
        and IX, IY the sine integrals over the x- and y-intervals."""
        a, b = self.side_x, self.side_y
        m, n = basis.params.T
        table = np.zeros((m.max(), n.max()))
        table[m - 1, n - 1] = coeffs
        ex, ey = self._edges(n_bins)
        ix = _sine_cell_integrals(table.shape[0], ex, a)
        iy = _sine_cell_integrals(table.shape[1], ey, b)
        masses = np.einsum("mi,mj->ij", ix, np.einsum("mn,nj->mj", table, iy))
        return 2.0 / math.sqrt(a * b) * masses.ravel()

    def cell_labels(self, n_bins: int) -> list[str]:
        ex, ey = (e.tolist() for e in self._edges(n_bins))
        return [f"({ex[i]!r};{ey[j]!r}),({ex[i + 1]!r};{ey[j + 1]!r})"
                for i in range(n_bins) for j in range(n_bins)]


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
    """All Dirichlet eigenpairs with eigenvalue <= cutoff, globally ordered,
    as one table: mode n has ``eigenvalues[n]``, the mean coefficient
    ``one_coeffs[n]``, its quantum numbers ``labels[n]`` and the closed-form
    constants ``params[n]`` from which the domain evaluates it."""

    domain: Domain
    cutoff: float
    quadrature: QuadratureRule
    eigenvalues: np.ndarray = field(repr=False)
    one_coeffs: np.ndarray = field(repr=False)
    labels: tuple = field(repr=False)
    params: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.eigenvalues.size

    def mode_values(self, index, x, y):
        """Values of the modes ``params[index]`` at the points ``(x, y)``:
        one row per mode, or the values alone for an integer index."""
        rows = self.params[index]
        values = self.domain.mode_values(np.atleast_2d(rows),
                                         np.asarray(x, dtype=float),
                                         np.asarray(y, dtype=float))
        return values[0] if rows.ndim == 1 else values

    def spectral_distance(self, lam):
        """Distance from ``lam`` (a point or an array of points) to the
        Dirichlet spectrum, the modes past the cutoff included: they lie on
        the ray ``[cutoff, inf)``, whose distance bounds theirs from below."""
        lam = np.asarray(lam, dtype=complex)
        # the spectrum is real and build_basis sorts ``eigenvalues``
        # ascending, so the nearest eigenvalue is one of the two around Re lam
        e, cutoff = self.eigenvalues, self.cutoff
        i = np.clip(np.searchsorted(e, lam.real), 1, e.size - 1)
        d = np.minimum(np.abs(lam - e[i - 1]), np.abs(lam - e[i]))
        ray = np.where(lam.real >= cutoff, np.abs(lam.imag),
                       np.hypot(cutoff - lam.real, lam.imag))
        return np.minimum(d, ray)

    @cached_property
    def cluster_starts(self) -> np.ndarray:
        """First mode of each cluster.  With ``cluster_sizes`` and
        ``cluster_means`` it makes the cluster table: one row per cluster,
        read-only columns built on first use.  A mode opens a new cluster
        unless it lies within ``CLUSTER_RTOL * (1 + lambda)`` of the open
        cluster's first mode, so a cluster is a run of consecutive modes."""
        eigs = self.eigenvalues.tolist()
        starts = [0]
        for i, lam in enumerate(eigs):
            if lam - eigs[starts[-1]] > CLUSTER_RTOL * (1.0 + lam):
                starts.append(i)
        return _read_only(np.array(starts))

    @cached_property
    def cluster_sizes(self) -> np.ndarray:
        return _read_only(np.diff(self.cluster_starts, append=len(self)))

    @cached_property
    def cluster_means(self) -> np.ndarray:
        return _read_only(self.cluster_sums(self.eigenvalues)
                          / self.cluster_sizes)

    def cluster_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum of the per-mode ``values`` over each cluster, added left to
        right (``np.sum``'s order below 8 terms, bit for bit; from 8 on
        ``np.sum`` adds pairwise): the columns of a zero-padded table of
        clusters x largest size, added in turn."""
        width = np.arange(self.cluster_sizes.max())
        index = np.where(width < self.cluster_sizes[:, None],
                         self.cluster_starts[:, None] + width, len(self))
        return sum(np.append(values, 0.0)[index].T)


def build_basis(domain: Domain, cutoff: float) -> BasisSet:
    """Enumerate all Dirichlet eigenpairs with eigenvalue <= cutoff.

    Ties in eigenvalue are broken by lexicographic label order so the
    enumeration is deterministic.  The domain's default rule is sized for
    products of modes up to the cutoff (>= 4 nodes per oscillation of the
    highest mode per axis).
    """
    raw = domain.modes(cutoff)
    if not raw:
        raise EmptyBasisError(
            f"cutoff {cutoff} lies below the first eigenvalue of the domain")
    raw.sort(key=lambda t: (t[0], t[1]))

    rule = domain.default_quadrature(cutoff)
    domain.check_resolution(cutoff, rule)

    eigs, labels, params = zip(*raw)
    ocs = np.array([domain.mean_coefficient(p) for p in params])
    return BasisSet(domain, float(cutoff), rule, np.array(eigs), ocs, labels,
                    np.array(params))


# Module-level entry points: secular and numrange call the domain through
# these names, and perfbench/tracer.py wraps them to time and count the layers.

def layer_quadrature(domain: Domain, eps: float, n_s: int = 32,
                     n_tan: int = 256):
    """Quadrature over the collar of width eps along the boundary.

    Returns the rule and the flat array ``s = rho/eps`` of the scaled
    boundary distance at each node.  The rectangle collar is split into four
    side strips plus four exact corner squares, so the rule covers the collar
    without double counting; each is one open-mesh block of the rule.
    """
    return domain.layer_quadrature(eps, n_s, n_tan)


def torsion_function(domain: Domain) -> Callable:
    """Solution of -Laplace u = 1 with zero boundary values."""
    return domain.torsion_function()


def torsion_second(domain: Domain) -> Callable:
    """Solution of -Laplace u = torsion_function with zero boundary values."""
    return domain.torsion_second()
