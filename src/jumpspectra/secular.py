"""Secular series of the restart generator and its real/complex zeros.

The boundary-value mean of the Dirichlet resolvent applied to the constant
function,

    s(lam) = sum_n (1, chi_n) <chi_n>_mu / (lambda_n - lam),

is meromorphic with simple real poles; its zeros off the Dirichlet spectrum
are exactly the nonzero point spectrum of the restart generator.  The series
is truncated at the basis cutoff.  Two exact low-order anchors (integrals of
the torsion function and its second-order iterate against the measure, which
the measure answers) restore the dropped tail to first order in ``lam``, so
evaluated values are far more accurate than the raw truncation; the remaining
error is reported as a certified bound.

Root finding, and every piece of operator algebra downstream, uses the
truncated sum itself ("model" values): inside the truncated model all
resolvent and eigenfunction identities hold to machine precision, while the
anchored value tells how far the model zeros can sit from the true ones.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (CutoffExceededError, PoleProximityError,
                     UndecidableError)
from .geometry import BasisSet, _leggauss
from .measures import MeasureMoments

INERT_TOL = 1e-12
_ROOT_GRID = 256          # sign-test nodes per inter-pole gap of real_roots_in
_AXIS_BAND = 1e-6         # |Im| below which complex_roots_in does not search
# Points x poles per block of the pole sums: their complex temporaries (64
# KiB) stay under glibc's default 128 KiB mmap threshold and come from the
# heap, where one block reuses the last one's memory, instead of being
# mapped and faulted in afresh on every call.
_SUM_TERMS = 1 << 12


def cutoff_margin(cutoff: float) -> float:
    """How far below the cutoff a point must lie to be evaluated."""
    return max(50.0, 0.05 * cutoff)


@dataclass(frozen=True)
class SecularSeries:
    """Pole/residue data of the secular function plus tail information."""

    basis: BasisSet
    moments: MeasureMoments
    live: np.ndarray             # per basis cluster: |residue| > INERT_TOL
    poles: np.ndarray            # the live clusters' means, strictly increasing
    residues: np.ndarray         # the live clusters' residues
    t0: float                    # tail of sum alpha/lambda   beyond the cutoff
    t1: float                    # tail of sum alpha/lambda^2 beyond the cutoff
    tail_mass: float             # bound on sum |alpha| over the dropped tail
    heuristic_tail: bool

    # -- raw sums ----------------------------------------------------------

    def _pole_sum(self, lam, term):
        """``sum_n term(z)[n]`` at each point, ``z`` a column of points, in
        blocks of at most ``_SUM_TERMS`` points x poles; every point's sum
        is its own reduction, so the blocks leave its bits unchanged."""
        lam = np.asarray(lam, dtype=complex)
        flat = lam.ravel()
        out = np.empty(flat.size, dtype=complex)
        rows = max(1, _SUM_TERMS // max(self.poles.size, 1))
        for lo in range(0, flat.size, rows):
            out[lo:lo + rows] = np.sum(term(flat[lo:lo + rows, None]), axis=-1)
        return out.reshape(lam.shape)

    def sum_values(self, lam):
        """Truncated model value at (arrays of) complex points."""
        return self._pole_sum(lam, lambda z: self.residues / (self.poles - z))

    def sum_derivative(self, lam):
        return self._pole_sum(
            lam, lambda z: self.residues / (self.poles - z) ** 2)

    def _tail_bounds(self, lam):
        """Error bounds at (arrays of) points of the anchored value (tight
        for |lam| << cutoff) and of the raw truncated sum (tight for lam
        far left), both infinite where ``cutoff - Re lam <= 0``."""
        lam = np.asarray(lam, dtype=complex)
        cutoff = self.basis.cutoff
        gap = cutoff - lam.real
        # |lam| and |lam|^2 through libm's hypot and pow, the bits of
        # Python's abs() and ** on one point
        mod = np.hypot(lam.real, lam.imag)
        with np.errstate(divide="ignore", invalid="ignore"):
            anchored = (np.float_power(mod, 2) * self.tail_mass
                        / (cutoff ** 2 * gap)
                        + 1e-12 * (1.0 + mod))
            plain = self.tail_mass / gap + 1e-13 * (1.0 + mod)
        beyond = gap <= 0
        return (np.where(beyond, np.inf, anchored),
                np.where(beyond, np.inf, plain))

    def tail_bound(self, lam):
        """Certified evaluation error bound at (arrays of) points: the best
        of the two branches."""
        return np.minimum(*self._tail_bounds(lam))

    def _check_point(self, lam: complex):
        cutoff = self.basis.cutoff
        if lam.real > cutoff - cutoff_margin(cutoff):
            raise CutoffExceededError(
                f"Re lam = {lam.real} too close to cutoff {cutoff}")
        if self.poles.size:
            dist = np.abs(self.poles - lam)
            j = int(np.argmin(dist))
            if dist[j] < 1e-12 * (1.0 + abs(self.poles[j])):
                raise PoleProximityError(
                    f"lam = {lam} within 1e-12 of pole {self.poles[j]}")


def build_secular_series(basis: BasisSet,
                         moments: MeasureMoments) -> SecularSeries:
    """Residue of each eigenvalue cluster, the sum of ``(1, chi) <chi>_mu``
    over its modes; a cluster is a pole when that residue is live (not
    symmetry-killed).  Also computes the tail anchors."""
    alpha = basis.one_coeffs * moments.moments
    residue = basis.cluster_sums(alpha)
    live = np.abs(residue) > INERT_TOL

    # exact full-series anchors: <R_D(0) 1>_mu and <R_D(0)^2 1>_mu
    m0_full, m1_full = moments.spec.anchors(basis)
    retained0 = float(np.sum(alpha / basis.eigenvalues))
    retained1 = float(np.sum(alpha / basis.eigenvalues ** 2))
    t0 = m0_full - retained0
    t1 = m1_full - retained1

    if moments.l2_density_norm is not None:
        d_one = max(basis.domain.area - float(np.sum(basis.one_coeffs ** 2)), 0.0)
        d_w = max(moments.l2_density_norm ** 2 - float(np.sum(moments.moments ** 2)), 0.0)
        tail_mass = math.sqrt(d_one * d_w)
        heuristic = False
    else:
        # no Parseval control for singular measures: extrapolate the observed
        # decay of the residues over the top decade, with a safety factor 10
        lo = basis.eigenvalues >= 0.5 * basis.cutoff
        tail_mass = 10.0 * float(np.sum(np.abs(alpha[lo]))) + 1e-12
        heuristic = True

    return SecularSeries(basis, moments, live, basis.cluster_means[live],
                         residue[live], t0, t1, tail_mass, heuristic)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_secular(series: SecularSeries, lam) -> tuple[complex, float]:
    """Secular value with a certified error bound.

    Uses the tail-anchored form where its bound wins (everywhere near the
    spectrum) and falls back to the raw truncated sum far to the left, where
    the first-order tail expansion stops helping.
    """
    lam = complex(lam)
    series._check_point(lam)
    plain = complex(series.sum_values(np.array([lam]))[0])
    anchored_bound, plain_bound = series._tail_bounds(lam)
    if anchored_bound <= plain_bound:
        return plain + series.t0 + lam * series.t1, float(anchored_bound)
    return plain, float(plain_bound)


def eval_secular_derivative(series: SecularSeries, lam) -> complex:
    """Derivative of the secular value (same branch choice as the value)."""
    lam = complex(lam)
    series._check_point(lam)
    plain = complex(series.sum_derivative(np.array([lam]))[0])
    anchored_bound, plain_bound = series._tail_bounds(lam)
    return plain + series.t1 if anchored_bound <= plain_bound else plain


# ---------------------------------------------------------------------------
# real roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealRoot:
    value: float
    bracket: tuple[float, float]
    residual: float


@dataclass(frozen=True)
class ComplexRoot:
    value: complex
    residual: float


@dataclass(frozen=True)
class CountedBox:
    box: tuple[float, float, float, float]     # re_lo, re_hi, im_lo, im_hi
    count: int


@dataclass(frozen=True)
class RootReport:
    complex_roots: tuple[ComplexRoot, ...]      # Im > 0 representatives
    zero_count_boxes: tuple[CountedBox, ...] = ()


def brentq(f, a, b, xtol=2e-12, rtol=8.881784197001252e-16, maxiter=100):
    """Zero of ``f`` on the bracket ``[a, b]`` by Brent's method (R. P. Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4).

    A port of scipy's ``brentq.c`` behind ``scipy.optimize.brentq``: the
    same operation order, sign-bit tests and tie rule, so it returns the
    same bits.  Like scipy it raises ``ValueError`` when ``f(a)`` and
    ``f(b)`` have the same sign or ``f`` returns NaN, and ``RuntimeError``
    when ``maxiter`` iterations do not converge.
    """
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            bound = 3 * abs(sbis) - delta
            # C's MIN(a, b) is (a < b ? a : b): b on ties
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry         # good short step
            else:
                spre = scur = sbis              # bisect
        else:
            spre = scur = sbis                  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur:f}")


def _gap_segments(series: SecularSeries, lo: float, hi: float):
    """Open sub-intervals of (lo, hi) between consecutive non-inert poles."""
    poles = series.poles
    cuts = [lo, *poles[(lo < poles) & (poles < hi)], hi]
    segs = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        da = 1e-9 * (1.0 + abs(a))
        db = 1e-9 * (1.0 + abs(b))
        if b - db > a + da:
            segs.append((a + da, b - db))
    return segs


def real_roots_in(series: SecularSeries, lo: float,
                  hi: float) -> list[RealRoot]:
    """Sign-change bracketing plus Brent refinement on each inter-pole gap.

    A grid node where the model value is exactly 0 is itself a root (with
    residual 0); only strict sign changes between nonzero values are
    bracketed.
    """
    if hi <= lo:
        return []
    for end in (hi, lo):
        series._check_point(complex(end))

    def f(x):
        return float(np.real(series.sum_values(np.array([complex(x)]))[0]))

    roots = []
    for a, b in _gap_segments(series, lo, hi):
        xs = np.linspace(a, b, _ROOT_GRID)
        vals = np.real(series.sum_values(xs.astype(complex)))
        # a root on node i, or between nodes i and i + 1 of opposite signs
        found = vals == 0.0
        found[:-1] |= np.sign(vals[:-1]) * np.sign(vals[1:]) < 0
        if not found.any():
            # ambiguous only if the whole segment stays below the tail bound
            if np.all(np.abs(vals) <= series.tail_bound(xs) + 1e-12):
                raise UndecidableError(
                    f"secular values on ({a:.6g}, {b:.6g}) are below the tail "
                    f"bound at cutoff {series.basis.cutoff}; increase the cutoff")
            continue
        for i in np.flatnonzero(found):
            if vals[i] == 0.0:
                roots.append(RealRoot(float(xs[i]),
                                      (float(xs[i]), float(xs[i])), 0.0))
                continue
            x0 = brentq(f, xs[i], xs[i + 1], xtol=1e-13 * (1 + abs(xs[i])),
                        rtol=8.9e-16)
            roots.append(RealRoot(float(x0), (float(xs[i]), float(xs[i + 1])),
                                  abs(f(x0))))
    return roots


# ---------------------------------------------------------------------------
# complex roots by the argument principle
# ---------------------------------------------------------------------------

def _edge_points(box):
    re_lo, re_hi, im_lo, im_hi = box
    return [
        (complex(re_lo, im_lo), complex(re_hi, im_lo)),
        (complex(re_hi, im_lo), complex(re_hi, im_hi)),
        (complex(re_hi, im_hi), complex(re_lo, im_hi)),
        (complex(re_lo, im_hi), complex(re_lo, im_lo)),
    ]


def _segment_integral(series, z0, z1):
    """16-point Gauss-Legendre rule for the integral of s'/s over the
    segment; one reciprocal ``1/(pole - z)`` per node and pole serves both
    sums, which are numpy reductions (no BLAS, so no thread-count bits)."""
    t, w = _leggauss(16)
    mid = 0.5 * (z0 + z1)
    half = 0.5 * (z1 - z0)
    z = mid + half * t
    d = 1.0 / (series.poles - z[:, None])
    rd = series.residues * d
    return half * np.sum(w * np.sum(rd * d, axis=-1) / np.sum(rd, axis=-1))


def _edge_integral(series, z0, z1, depth=0, whole=None):
    """Adaptive integral of s'/s along one edge; ``whole`` is the segment
    integral over (z0, z1) when the caller already has it."""
    if whole is None:
        whole = _segment_integral(series, z0, z1)
    mid = 0.5 * (z0 + z1)
    left = _segment_integral(series, z0, mid)
    right = _segment_integral(series, mid, z1)
    split = left + right
    if not (cmath.isfinite(whole) and cmath.isfinite(split)):
        raise UndecidableError(f"contour integral on edge {z0}..{z1} is not "
                               "finite")
    if abs(whole - split) < 0.02 or depth >= 24:
        return split
    return (_edge_integral(series, z0, mid, depth + 1, left)
            + _edge_integral(series, mid, z1, depth + 1, right))


def _winding_count(series: SecularSeries, box) -> int:
    total = 0j
    for z0, z1 in _edge_points(box):
        total += _edge_integral(series, z0, z1)
    raw = total / (2j * math.pi)
    count = raw.real
    # poles are all real; they only enter boxes that straddle the axis
    re_lo, re_hi, im_lo, im_hi = box
    n_poles = 0
    if im_lo < 0.0 < im_hi:
        n_poles = int(np.sum((series.poles > re_lo) & (series.poles < re_hi)))
    z = count + n_poles
    if abs(z - round(z)) > 0.2 or abs(raw.imag) > 0.2:
        raise UndecidableError(
            f"contour count {raw} on box {box} failed to converge to an integer")
    return int(round(z))


def _edge_clearance_ok(series: SecularSeries, box) -> bool:
    for z0, z1 in _edge_points(box):
        t = np.linspace(0.0, 1.0, 33)
        z = z0 + (z1 - z0) * t
        vals = np.abs(series.sum_values(z))
        floor = np.maximum(series.tail_bound(z), 1e-11)
        if np.any(vals <= floor):
            return False
        if series.poles.size:
            dmin = np.min(np.abs(series.poles[None, :] - z[:, None]))
            if dmin < 1e-6:
                return False
    return True


def _newton_refine(series: SecularSeries, z0: complex, box) -> complex | None:
    re_lo, re_hi, im_lo, im_hi = box
    z = complex(z0)
    fz = series.sum_values(np.array([z]))[0]
    for _ in range(200):
        dz = fz / series.sum_derivative(np.array([z]))[0]
        step = 1.0
        while step > 1e-8:
            zn = z - step * dz
            fn = series.sum_values(np.array([zn]))[0]
            if abs(fn) < abs(fz):
                break
            step *= 0.5
        else:
            return None
        z, fz = zn, fn
        if abs(step * dz) < 1e-11 * (1.0 + abs(z)):
            break
    if not (re_lo - 1e-8 <= z.real <= re_hi + 1e-8
            and im_lo - 1e-8 <= z.imag <= im_hi + 1e-8):
        return None
    return z


def _search_box(series, box, found, boxes, depth=0):
    shifted = box
    for attempt in range(6):
        if _edge_clearance_ok(series, shifted):
            break
        if attempt == 5:
            raise UndecidableError(
                f"could not keep the contour of {box} clear of zeros/poles")
        d = 1e-4 * (1 + attempt) * max(box[1] - box[0], box[3] - box[2])
        shifted = (shifted[0] - d, shifted[1] + d, shifted[2], shifted[3] + d)
    count = _winding_count(series, shifted)
    boxes.append(CountedBox(shifted, count))
    if count == 0:
        return
    re_lo, re_hi, im_lo, im_hi = shifted
    if count == 1:
        z = _newton_refine(series, complex(0.5 * (re_lo + re_hi),
                                           0.5 * (im_lo + im_hi)), shifted)
        if z is not None:
            found.append(z)
            return
    if depth >= 40:
        raise UndecidableError(f"box {box} kept {count} unresolvable zeros")
    if re_hi - re_lo >= im_hi - im_lo:
        mid = 0.5 * (re_lo + re_hi)
        _search_box(series, (re_lo, mid, im_lo, im_hi), found, boxes, depth + 1)
        _search_box(series, (mid, re_hi, im_lo, im_hi), found, boxes, depth + 1)
    else:
        mid = 0.5 * (im_lo + im_hi)
        _search_box(series, (re_lo, re_hi, im_lo, mid), found, boxes, depth + 1)
        _search_box(series, (re_lo, re_hi, mid, im_hi), found, boxes, depth + 1)


def complex_roots_in(series: SecularSeries, box) -> RootReport:
    """Zeros of the secular model inside a complex rectangle.

    Only representatives with positive imaginary part are reported; the
    conjugates are implied by the real coefficients of the series.  For a
    box symmetric about the real axis, the strip ``|Im| < _AXIS_BAND`` is
    excluded from the search (real roots belong to ``real_roots_in``).
    """
    re_lo, re_hi, im_lo, im_hi = (float(v) for v in box)
    series._check_point(complex(re_hi, 0.0))
    if im_lo < 0.0 and abs(im_lo + im_hi) > 1e-12:
        raise ValueError("boxes crossing the real axis must be symmetric")
    if im_lo <= 0.0:
        im_lo = _AXIS_BAND
    found: list[complex] = []
    boxes: list[CountedBox] = []
    if im_hi > im_lo:
        _search_box(series, (re_lo, re_hi, im_lo, im_hi), found, boxes)
    found.sort(key=lambda z: (z.real, z.imag))
    roots = tuple(
        ComplexRoot(z, float(abs(series.sum_values(np.array([z]))[0])))
        for z in found)
    return RootReport(roots, tuple(boxes))
