"""Bessel functions of the first kind of integer order, and their zeros.

The unit disk's Dirichlet basis needs ``J_m(x)`` only for integer orders and
real ``x``, and the positive zeros ``j_{m,k}`` below ``sqrt(cutoff)``.  Both
come from one vectorised routine:

* values by Miller's backward recurrence ``J_{k-1} = (2k/x) J_k - J_{k+1}``,
  started far above ``max(m, x)`` and normalised by
  ``J_0 + 2 (J_2 + J_4 + ...) = 1`` (Gautschi 1967, SIAM Review 9;
  Abramowitz & Stegun 9.12).  One pass over the orders serves every point
  of a call, so callers batch all their modes into one call;
* zeros by the sign changes of ``J_m`` on a grid that starts at ``x = m``
  (no positive zero lies below it), refined by Newton steps with
  ``J_m' = (m/x) J_m - J_{m+1}``.  Each result must stay in its bracket and
  the table must interlace, ``j_{m,k} < j_{m+1,k} < j_{m,k+1}``.

Against ``scipy.special`` the values agree to 2e-15 absolute for orders up
to 60 and ``x <= 60``, and the zeros below ``sqrt(8000)`` to 1 ulp (see
``tests/test_bessel.py``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import BesselZeroError

# Below this x the power series is its leading term in double precision:
# the next term is (x/2)^2/(m+1) < 2^-62 relative.
_SERIES_X = 2.0 ** -30
# Recurrence values above this are rescaled; one step grows them by at most
# 2k/x < 2^40, so they never overflow.
_RESCALE = 2.0 ** 600
_GRID_STEP = 0.5          # below the spacing of consecutive zeros (> 3)
_NEWTON_STEPS = 30


def _start_order(order, x):
    """Start of the recurrence for ``J_order(x)``: with ``n = max(order,
    x)``, ``J_N(n)`` is below 1e-20 at ``N = n + 20 + 9 n^(1/3)``, and
    Miller's error falls like ``J_N^2``."""
    n = np.maximum(order, x)
    return (n + 20.0 + 9.0 * np.cbrt(n)).astype(np.int64)


def _series(order, x):
    """Leading term ``(x/2)^m / m!`` of the power series, for tiny ``x``."""
    top = int(order.max())
    ratios = 0.5 * x / np.arange(1, top + 1)[:, None]
    table = np.cumprod(np.vstack([np.ones_like(x), ratios]), axis=0)
    return table[order, np.arange(x.size)]


def _indices_by_value(values):
    """``{v: indices where values == v}`` for an integer array."""
    order = np.argsort(values, kind="stable")
    cuts = np.flatnonzero(np.diff(values[order])) + 1
    firsts = values[order[np.concatenate([[0], cuts])]]
    return dict(zip(firsts.tolist(), np.split(order, cuts)))


def _miller(order, x):
    """``J_order(x)`` for ``x >= _SERIES_X`` by normalised backward
    recurrence, one pass over the orders for every point.  Each point starts
    at its own order (``_start_order``), so its value does not depend on
    the other points of the call."""
    start = _start_order(order, x)
    at_start = _indices_by_value(start)
    at_order = _indices_by_value(order)
    out = np.zeros_like(x)
    even_sum = np.zeros_like(x)
    f_above = np.zeros_like(x)          # f_{k+1}
    f = np.zeros_like(x)                # f_k; zero until the point starts
    for k in range(int(start.max()), 0, -1):
        if k in at_start:
            f[at_start[k]] = 1.0
        if k % 2 == 0:
            even_sum += f
        if k in at_order:
            out[at_order[k]] = f[at_order[k]]
        f, f_above = (2 * k) / x * f - f_above, f
        if np.abs(f).max() > _RESCALE:
            big = np.abs(f) > _RESCALE
            for arr in (f, f_above, even_sum, out):
                arr[big] /= _RESCALE
    if 0 in at_order:
        out[at_order[0]] = f[at_order[0]]
    return out / (f + 2.0 * even_sum)


def jv(order, x):
    """Bessel function of the first kind ``J_order(x)`` for integer orders
    ``>= 0``, broadcast against ``x >= 0``; ``J_0(0) = 1`` and ``J_m(0) = 0``
    for ``m >= 1``."""
    order, x = np.broadcast_arrays(np.asarray(order), np.asarray(x, dtype=float))
    m = order.astype(np.int64)
    if np.any(m != order) or np.any(m < 0) or np.any(x < 0):
        raise ValueError("jv takes integer orders >= 0 and arguments >= 0")
    shape = x.shape
    m, x = m.ravel(), x.ravel()
    out = np.empty_like(x)
    small = x < _SERIES_X
    if small.any():
        out[small] = _series(m[small], x[small])
    if not small.all():
        out[~small] = _miller(m[~small], x[~small])
    return out.reshape(shape)[()]


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------

def _brackets(jmax: float):
    """Grid cells ``[lo, hi]`` in which ``J_m`` changes sign, for every
    order below ``jmax``; their ``hi`` may pass ``jmax`` by one step."""
    orders = np.arange(int(jmax) + 1)                # j_{m,1} > m
    steps = _GRID_STEP * np.arange(int(math.ceil(jmax / _GRID_STEP)) + 2)
    x = np.minimum(orders[:, None] + steps, jmax + _GRID_STEP)
    sign = np.signbit(jv(orders[:, None], x))
    m, i = np.nonzero(sign[:, :-1] != sign[:, 1:])
    return m, x[m, i], x[m, i + 1]


def _refine(orders, lo, hi):
    """Newton's method from the secant point of each bracket.

    Raises ``BesselZeroError`` as soon as an iterate leaves its bracket (in
    a grid cell ``J_m`` is monotone, since a zero and the nearest extremum
    lie more than a cell apart).
    """
    f_lo, f_hi = jv(np.stack([orders, orders]), np.stack([lo, hi]))
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    for _ in range(_NEWTON_STEPS):
        f, f_next = jv(np.stack([orders, orders + 1]), np.stack([x, x]))
        step = f / (orders / x * f - f_next)
        x = x - step
        escaped = ~((lo <= x) & (x <= hi))
        if escaped.any():
            i = int(np.argmax(escaped))
            raise BesselZeroError(
                f"Newton iterate {x[i]!r} for J_{orders[i]} left its bracket "
                f"[{lo[i]!r}, {hi[i]!r}]")
        if np.all(np.abs(step) <= 4.0 * np.spacing(x)):
            break
    return x


def _check_interlacing(orders, index, zeros):
    """Raise ``BesselZeroError`` unless ``j_{m,k} < j_{m,k+1}`` and
    ``j_{m,k} < j_{m+1,k} < j_{m,k+1}`` wherever both sides are listed,
    and order ``m + 1`` lists no zero that order ``m`` lacks."""
    table = np.full((orders.max() + 2, index.max() + 1), np.nan)
    table[orders, index - 1] = zeros
    below, above = table[:-1], table[1:]
    if (np.any(table[:, :-1] >= table[:, 1:])
            or np.any(below >= above)
            or np.any(above[:, :-1] >= below[:, 1:])
            or np.any(np.isnan(below) & ~np.isnan(above))):
        raise BesselZeroError("Bessel zeros do not interlace")


def _zero_table(orders, lo, hi, jmax):
    """Refine the brackets and keep the zeros up to ``jmax``, checked."""
    zeros = _refine(orders, lo, hi)
    keep = zeros <= jmax
    orders, zeros = orders[keep], zeros[keep]
    # brackets come sorted by order, then by position
    first = np.searchsorted(orders, orders)
    index = np.arange(orders.size) - first + 1
    if orders.size:
        _check_interlacing(orders, index, zeros)
    return orders, index, zeros


@lru_cache(maxsize=32)
def bessel_zeros(jmax: float):
    """Every positive zero ``j_{m,k} <= jmax`` as read-only arrays
    ``(m, k, j_{m,k})``, sorted by order and then by index; built once per
    ``jmax``."""
    table = _zero_table(*_brackets(jmax), jmax)
    for arr in table:
        arr.flags.writeable = False
    return table


def bessel_zero(order: int, k: int) -> float:
    """k-th positive zero of J_order, k >= 1."""
    if k < 1:
        raise ValueError("zero index k must be >= 1")
    jmax = order + math.pi * (k + 1)
    while True:
        m, index, zeros = bessel_zeros(jmax)
        hit = zeros[(m == order) & (index == k)]
        if hit.size:
            return float(hit[0])
        jmax *= 2.0
