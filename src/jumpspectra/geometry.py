"""Domain geometry, closed-form Dirichlet eigenbases and quadrature rules.

Two planar domains are supported with unit diffusion matrix: the unit disk
and an axis-aligned rectangle anchored at the origin.  Both admit explicit
Dirichlet eigenpairs, which is what makes every downstream spectral check
exact up to series truncation:

* rectangle ``(0,a) x (0,b)``: eigenvalues ``(m pi/a)^2 + (n pi/b)^2`` with
  product-sine eigenfunctions,
* unit disk: eigenvalues ``j_{m,k}^2`` (squared Bessel zeros) with
  ``J_m(j_{m,k} r) {cos,sin}(m theta)`` eigenfunctions.

Radial disk modes are normalised against the signed value ``J_1(j_{0,k})``
so that every mean coefficient ``(1, chi)`` comes out positive; the ground
state is positive either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import jn_zeros, jv

from .errors import EmptyBasisError, EvaluationError, ResolutionError

# Clustering tolerance for grouping equal eigenvalues, relative to 1 + lambda.
CLUSTER_RTOL = 1e-9


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """Geometry of the diffusion domain (diffusion matrix is the identity).

    ``area`` is the Lebesgue measure and ``boundary_weight`` the integral of
    ``n . a n`` over the boundary, which equals the perimeter for identity
    diffusion.
    """

    kind: str                      # "disk" or "rectangle"
    side_x: float | None
    side_y: float | None
    area: float
    boundary_weight: float
    incenter: tuple[float, float]
    inradius: float

    def contains(self, x, y):
        if self.kind == "disk":
            return x * x + y * y < 1.0
        return (0.0 < x) & (x < self.side_x) & (0.0 < y) & (y < self.side_y)

    def boundary_distance(self, x, y):
        """Distance to the boundary (the rho of boundary-layer probes)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "disk":
            return 1.0 - np.hypot(x, y)
        return np.minimum(np.minimum(x, self.side_x - x),
                          np.minimum(y, self.side_y - y))


def unit_disk() -> DomainSpec:
    return DomainSpec("disk", None, None, math.pi, 2.0 * math.pi,
                      (0.0, 0.0), 1.0)


def rectangle(side_x: float, side_y: float) -> DomainSpec:
    if side_x <= 0 or side_y <= 0:
        raise ValueError("rectangle sides must be positive")
    return DomainSpec("rectangle", float(side_x), float(side_y),
                      side_x * side_y, 2.0 * (side_x + side_y),
                      (side_x / 2.0, side_y / 2.0), min(side_x, side_y) / 2.0)


# ---------------------------------------------------------------------------
# Bessel zeros
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _jn_zeros_cached(order: int, count: int) -> tuple[float, ...]:
    return tuple(jn_zeros(order, count))


def bessel_zero(order: int, k: int) -> float:
    """k-th positive zero of J_order, k >= 1."""
    if k < 1:
        raise ValueError("zero index k must be >= 1")
    # grow the cached table in chunks so repeated queries stay cheap
    count = 8
    while count < k:
        count *= 2
    return _jn_zeros_cached(order, max(count, k))[k - 1]


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mode:
    """One Dirichlet eigenpair with its mean coefficient ``(1, chi)``."""

    index: int
    eigenvalue: float
    label: tuple
    one_coeff: float
    _kind: str = field(repr=False)
    _params: tuple = field(repr=False)

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self._kind == "rect":
            m, n, a, b = self._params
            return (2.0 / math.sqrt(a * b)
                    * np.sin(m * math.pi * x / a)
                    * np.sin(n * math.pi * y / b))
        m, j, norm = self._params
        r = np.hypot(x, y)
        rad = jv(m, j * r) / norm
        if m == 0:
            return rad
        theta = np.arctan2(y, x)
        ang = np.cos(m * theta) if self.label[2] == "cos" else np.sin(m * theta)
        return rad * ang

    def gradient(self, x, y):
        """Cartesian gradient, for quadrature of Dirichlet forms.

        Angular disk modes are singular at the origin in polar form; callers
        must keep r > 0 (interior quadrature nodes always do).
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self._kind == "rect":
            m, n, a, b = self._params
            c = 2.0 / math.sqrt(a * b)
            sx = np.sin(m * math.pi * x / a)
            cx = np.cos(m * math.pi * x / a)
            sy = np.sin(n * math.pi * y / b)
            cy = np.cos(n * math.pi * y / b)
            return (c * (m * math.pi / a) * cx * sy,
                    c * (n * math.pi / b) * sx * cy)
        m, j, norm = self._params
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        if m == 0:
            drad = -j * jv(1, j * r) / norm
            return (drad * np.cos(theta), drad * np.sin(theta))
        rad = jv(m, j * r) / norm
        drad = j * 0.5 * (jv(m - 1, j * r) - jv(m + 1, j * r)) / norm
        if self.label[2] == "cos":
            ang, dang = np.cos(m * theta), -m * np.sin(m * theta)
        else:
            ang, dang = np.sin(m * theta), m * np.cos(m * theta)
        fr = drad * ang
        ft = rad * dang / r
        return (fr * np.cos(theta) - ft * np.sin(theta),
                fr * np.sin(theta) + ft * np.cos(theta))


def one_coefficient(mode: Mode, domain: DomainSpec) -> float:
    """Mean coefficient ``(1, chi)`` in closed form."""
    if mode._kind == "rect":
        m, n, a, b = mode._params
        if m % 2 == 0 or n % 2 == 0:
            return 0.0
        return 8.0 * math.sqrt(a * b) / (math.pi ** 2 * m * n)
    m, j, _ = mode._params
    if m != 0:
        return 0.0
    # integral J0(j r) r dr = J1(j)/j; the signed normalisation cancels J1
    return 2.0 * math.sqrt(math.pi) / j


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Tensor quadrature over the domain, with its 1-D factors retained."""

    kind: str
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    axes: tuple          # disk: (r, wr, theta); rect: (gx, wx, gy, wy)

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


def disk_quadrature(n_r: int, n_theta: int) -> QuadratureRule:
    r, wr = _gl_nodes(n_r, 0.0, 1.0)
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    wtheta = 2.0 * math.pi / n_theta
    rr = np.repeat(r, n_theta)
    tt = np.tile(theta, n_r)
    w = np.repeat(wr * r, n_theta) * wtheta
    return QuadratureRule("disk", rr * np.cos(tt), rr * np.sin(tt), w,
                          (r, wr, theta))


def rectangle_quadrature(a: float, b: float, n_x: int, n_y: int) -> QuadratureRule:
    gx, wx = _gl_nodes(n_x, 0.0, a)
    gy, wy = _gl_nodes(n_y, 0.0, b)
    xx = np.repeat(gx, n_y)
    yy = np.tile(gy, n_x)
    w = np.repeat(wx, n_y) * np.tile(wy, n_x)
    return QuadratureRule("rectangle", xx, yy, w, (gx, wx, gy, wy))


def default_quadrature(domain: DomainSpec, cutoff: float) -> QuadratureRule:
    """Rule sized for products of modes up to the cutoff (>= 4 nodes per
    oscillation of the highest mode per axis)."""
    kmax = math.sqrt(max(cutoff, 1.0))
    if domain.kind == "disk":
        n_r = max(64, int(math.ceil(1.2 * kmax)) + 24)
        n_theta = max(128, 4 * int(math.ceil(kmax)) + 16)
        return disk_quadrature(n_r, n_theta)
    a, b = domain.side_x, domain.side_y
    n_x = max(64, 2 * int(math.ceil(a * kmax / math.pi)) + 24)
    n_y = max(64, 2 * int(math.ceil(b * kmax / math.pi)) + 24)
    return rectangle_quadrature(a, b, n_x, n_y)


def _check_resolution(domain: DomainSpec, cutoff: float, rule: QuadratureRule):
    kmax = math.sqrt(max(cutoff, 1.0))
    if domain.kind == "disk":
        r, _, theta = rule.axes
        m_max = int(kmax)  # j_{m,1} > m, so angular orders never exceed sqrt(cutoff)
        if r.size < int(math.ceil(4.0 * kmax / math.pi)) or theta.size < 2 * m_max + 2:
            raise ResolutionError(
                f"quadrature ({r.size} radial x {theta.size} angular nodes) cannot "
                f"resolve modes up to cutoff {cutoff}")
    else:
        gx, _, gy, _ = rule.axes
        need_x = int(math.ceil(2.0 * domain.side_x * kmax / math.pi))
        need_y = int(math.ceil(2.0 * domain.side_y * kmax / math.pi))
        if gx.size < need_x or gy.size < need_y:
            raise ResolutionError(
                f"quadrature ({gx.size} x {gy.size} nodes) cannot resolve modes "
                f"up to cutoff {cutoff}")


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisSet:
    """All Dirichlet eigenpairs with eigenvalue <= cutoff, globally ordered."""

    domain: DomainSpec
    modes: tuple[Mode, ...]
    cutoff: float
    quadrature: QuadratureRule
    eigenvalues: np.ndarray = field(repr=False)
    one_coeffs: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.modes)

    def mode_rows(self, indices) -> np.ndarray:
        """Values of the selected modes at every quadrature node.

        Uses the tensor structure of the rule, so disk modes need only
        O(n_modes * (n_r + n_theta)) Bessel/trig evaluations.  Not cached;
        callers working with large bases should walk the modes in blocks.
        """
        indices = list(indices)
        rule = self.quadrature
        rows = np.empty((len(indices), rule.n_nodes))
        if self.domain.kind == "rectangle":
            gx, _, gy, _ = rule.axes
            a, b = self.domain.side_x, self.domain.side_y
            c = 2.0 / math.sqrt(a * b)
            for k, i in enumerate(indices):
                m, n = self.modes[i].label
                sx = np.sin(m * math.pi * gx / a)
                sy = np.sin(n * math.pi * gy / b)
                rows[k] = c * np.outer(sx, sy).ravel()
        else:
            r, _, theta = rule.axes
            for k, i in enumerate(indices):
                mode = self.modes[i]
                m, j, norm = mode._params
                rad = jv(m, j * r) / norm
                if m == 0:
                    rows[k] = np.repeat(rad, theta.size)
                else:
                    ang = (np.cos(m * theta) if mode.label[2] == "cos"
                           else np.sin(m * theta))
                    rows[k] = np.outer(rad, ang).ravel()
        return rows

    def mode_matrix(self) -> np.ndarray:
        """All mode values at all quadrature nodes, cached; (n_modes, n_nodes)."""
        cached = getattr(self, "_mode_matrix", None)
        if cached is not None:
            return cached
        rows = self.mode_rows(range(len(self.modes)))
        object.__setattr__(self, "_mode_matrix", rows)
        return rows

    def clusters(self) -> list[tuple[int, ...]]:
        """Indices grouped by equal eigenvalue (tolerance 1e-9 * (1+lambda))."""
        groups: list[list[int]] = []
        for i, lam in enumerate(self.eigenvalues):
            if groups and lam - self.eigenvalues[groups[-1][0]] <= CLUSTER_RTOL * (1.0 + lam):
                groups[-1].append(i)
            else:
                groups.append([i])
        return [tuple(g) for g in groups]


def _disk_labels(cutoff: float):
    jmax = math.sqrt(cutoff)
    labels = []
    m = 0
    while True:
        if bessel_zero(m, 1) > jmax:
            break
        k = 1
        while True:
            j = bessel_zero(m, k)
            if j > jmax:
                break
            if m == 0:
                labels.append((j * j, (0, k, "rad"), (0, j)))
            else:
                labels.append((j * j, (m, k, "cos"), (m, j)))
                labels.append((j * j, (m, k, "sin"), (m, j)))
            k += 1
        m += 1
    return labels


def build_basis(domain: DomainSpec, cutoff: float,
                quadrature: QuadratureRule | None = None) -> BasisSet:
    """Enumerate all Dirichlet eigenpairs with eigenvalue <= cutoff.

    Ties in eigenvalue are broken by lexicographic label order so the
    enumeration is deterministic.
    """
    raw = []
    if domain.kind == "rectangle":
        a, b = domain.side_x, domain.side_y
        m_max = int(math.floor(a * math.sqrt(cutoff) / math.pi)) + 1
        n_max = int(math.floor(b * math.sqrt(cutoff) / math.pi)) + 1
        for m in range(1, m_max + 1):
            for n in range(1, n_max + 1):
                lam = (m * math.pi / a) ** 2 + (n * math.pi / b) ** 2
                if lam <= cutoff:
                    raw.append((lam, (m, n), ("rect", (m, n, a, b))))
    else:
        for lam, label, (m, j) in _disk_labels(cutoff):
            if m == 0:
                norm = math.sqrt(math.pi) * jv(1, j)        # signed
            else:
                norm = math.sqrt(math.pi / 2.0) * jv(m + 1, j)
            raw.append((lam, label, ("disk", (m, j, norm))))
    if not raw:
        raise EmptyBasisError(
            f"cutoff {cutoff} lies below the first eigenvalue of the domain")
    raw.sort(key=lambda t: (t[0], t[1]))

    rule = quadrature if quadrature is not None else default_quadrature(domain, cutoff)
    _check_resolution(domain, cutoff, rule)

    modes = []
    for idx, (lam, label, (kind, params)) in enumerate(raw):
        mode = Mode(idx, lam, label, 0.0, kind, params)
        oc = one_coefficient(mode, domain)
        modes.append(Mode(idx, lam, label, oc, kind, params))
    eigs = np.array([m.eigenvalue for m in modes])
    ocs = np.array([m.one_coeff for m in modes])
    return BasisSet(domain, tuple(modes), float(cutoff), rule, eigs, ocs)


def quadrature_integral(f: Callable, domain: DomainSpec,
                        rule: QuadratureRule | None = None,
                        cutoff: float = 400.0) -> complex:
    """Integrate ``f(x, y)`` over the domain with the tensor rule."""
    if rule is None:
        rule = default_quadrature(domain, cutoff)
    return rule.integrate(f(rule.x, rule.y))


# ---------------------------------------------------------------------------
# boundary-layer quadrature (numerical-range probes)
# ---------------------------------------------------------------------------

def layer_quadrature(domain: DomainSpec, eps: float, n_s: int = 32,
                     n_tan: int = 256):
    """Quadrature over the collar of width eps along the boundary.

    Returns flat arrays ``(x, y, w, s)`` where ``s = rho/eps`` is the scaled
    boundary distance at each node.  The rectangle collar is split into four
    side strips plus four exact corner squares, so the rule covers the collar
    without double counting.
    """
    if domain.kind == "disk":
        s, ws = _gl_nodes(n_s, 0.0, 1.0)
        r = 1.0 - eps * s
        theta = 2.0 * math.pi * np.arange(n_tan) / n_tan
        wtheta = 2.0 * math.pi / n_tan
        rr = np.repeat(r, n_tan)
        tt = np.tile(theta, n_s)
        w = np.repeat(ws * eps * r, n_tan) * wtheta
        ss = np.repeat(s, n_tan)
        return rr * np.cos(tt), rr * np.sin(tt), w, ss

    a, b = domain.side_x, domain.side_y
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


def torsion_function(domain: DomainSpec) -> Callable:
    """Solution of -Laplace u = 1 with zero boundary values."""
    if domain.kind == "disk":
        def g(x, y):
            r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
            return (1.0 - r2) / 4.0
        return g

    a, b = domain.side_x, domain.side_y
    ms = np.arange(1, _RECT_SERIES_TERMS, 2, dtype=float)
    kap = ms * math.pi / a
    amp = 4.0 * a * a / (math.pi ** 3 * ms ** 3)

    def y_factor(y):
        return amp[:, None] * _cosh_ratio(kap[:, None], y - b / 2.0, b / 2.0)

    def g(x, y):
        x, y = _points(x, y)
        return x * (a - x) / 2.0 - _separable_series(x, y, kap, y_factor)

    return g


def torsion_second(domain: DomainSpec) -> Callable:
    """Solution of -Laplace u = torsion_function with zero boundary values."""
    if domain.kind == "disk":
        def g2(x, y):
            r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
            return (3.0 - 4.0 * r2 + r2 * r2) / 64.0
        return g2

    a, b = domain.side_x, domain.side_y
    ms = np.arange(1, _RECT_SERIES_TERMS, 2, dtype=float)
    kap = ms * math.pi / a
    amp = 4.0 * a * a / (math.pi ** 3 * ms ** 3)          # torsion series amplitude
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
