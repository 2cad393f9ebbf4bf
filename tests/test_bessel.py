"""Integer-order Bessel values and zeros against ``scipy.special``, which the
package itself never imports; plus the zero builder's own checks."""

import math

import numpy as np
import pytest
from scipy.special import jn_zeros
from scipy.special import jv as scipy_jv

from jumpspectra import bessel, geometry, measures
from jumpspectra.errors import BesselZeroError

TINY = [0.0, 5e-324, 1e-300, 1e-20, 1e-9, 2.0 ** -30, 1e-6, 1e-3]


def test_values_match_scipy():
    order = np.arange(61)[:, None]
    x = np.concatenate([TINY, np.linspace(0.0, 60.0, 2401)])
    got = bessel.jv(order, x)
    assert got.shape == (61, x.size)
    assert np.abs(got - scipy_jv(order, x)).max() <= 1e-14


def test_values_at_zero_and_tiny_x():
    assert bessel.jv(0, 0.0) == 1.0
    assert np.all(bessel.jv(np.arange(1, 40), 0.0) == 0.0)
    # scipy flushes J_40(1e-6) = 1.1e-300 to zero, hence the absolute floor
    for x in TINY[1:]:
        for m in (0, 1, 2, 7, 40):
            want = scipy_jv(m, x)
            assert bessel.jv(m, x) == pytest.approx(want, rel=1e-13, abs=1e-280)


@pytest.mark.parametrize("order_shape, x_shape", [
    ((), ()), ((), (5,)), ((3,), ()), ((3, 1), (1, 4)), ((2, 3, 1), (4,)),
    ((0,), ()), ((3,), (0, 3))])
def test_broadcast_shapes(order_shape, x_shape):
    rng = np.random.default_rng(3)
    order = rng.integers(0, 30, order_shape)
    x = rng.uniform(0.0, 45.0, x_shape)
    got = bessel.jv(order, x)
    want = scipy_jv(order, x)
    assert np.shape(got) == np.shape(want)
    assert np.all(np.abs(got - want) <= 1e-14)


@pytest.mark.parametrize("order, x", [(0.5, 1.0), (-1, 1.0), (1, -1.0)])
def test_out_of_range_input_rejected(order, x):
    with pytest.raises(ValueError):
        bessel.jv(order, x)


def test_value_does_not_depend_on_the_batch():
    # each point starts its recurrence at its own order, so one call over
    # every order gives the bits of one call per order and per point
    x = np.concatenate([[1e-12, 0.5], np.linspace(0.0, 40.0, 97)])
    batch = bessel.jv(np.arange(30)[:, None], x)
    for m in (0, 1, 9, 29):
        assert np.array_equal(batch[m], bessel.jv(m, x))
        assert np.array_equal(batch[m, ::7],
                              [bessel.jv(m, v) for v in x[::7]])


def test_zeros_match_scipy_below_sqrt_8000():
    jmax = math.sqrt(8000.0)
    orders, index, zeros = bessel.bessel_zeros(jmax)
    assert zeros.size == 990
    for m in range(orders.max() + 2):
        mine = zeros[orders == m]
        assert np.array_equal(index[orders == m], np.arange(1, mine.size + 1))
        ref = jn_zeros(m, mine.size + 1)
        # every zero below jmax is listed, and none above it
        assert ref[-1] > jmax
        assert np.all(np.abs(mine - ref[:-1]) <= 2 * np.spacing(ref[:-1]))


def test_zeros_interlace():
    orders, index, zeros = bessel.bessel_zeros(math.sqrt(8000.0))
    z = {(m, k): j for m, k, j in zip(orders.tolist(), index.tolist(),
                                      zeros.tolist())}
    for (m, k), j in z.items():
        assert j < z.get((m, k + 1), math.inf)
        if (m + 1, k) in z:
            assert j < z[m + 1, k] < z.get((m, k + 1), math.inf)


def test_zero_table_is_shared_read_only():
    orders, index, zeros = bessel.bessel_zeros(math.sqrt(300.0))
    assert bessel.bessel_zeros(math.sqrt(300.0))[2] is zeros
    with pytest.raises(ValueError):
        zeros[0] = 1.0


def test_bracket_without_a_zero_is_caught():
    # negative control: J_0 has no zero in [3.0, 3.5] (j_01 = 2.40, j_02 =
    # 5.52), so Newton must leave the corrupted bracket
    orders, lo, hi = bessel._brackets(math.sqrt(300.0))
    lo, hi = lo.copy(), hi.copy()
    lo[0], hi[0] = 3.0, 3.5
    with pytest.raises(BesselZeroError, match="left its bracket"):
        bessel._zero_table(orders, lo, hi, math.sqrt(300.0))


def test_missing_zero_breaks_interlacing():
    # negative control: dropping j_{0,2} leaves order 1 with a zero between
    # j_{0,1} and the zero now listed second for order 0
    orders, lo, hi = bessel._brackets(math.sqrt(300.0))
    keep = np.ones(orders.size, dtype=bool)
    keep[1] = False
    assert orders[1] == 0
    with pytest.raises(BesselZeroError, match="interlace"):
        bessel._zero_table(orders[keep], lo[keep], hi[keep], math.sqrt(300.0))


@pytest.mark.parametrize("cutoff", [0.0, 1.0, 5.78])
def test_no_zero_below_the_first(cutoff):
    # j_01^2 = 5.7832: below it the table is empty, and the basis raises
    assert bessel.bessel_zeros(math.sqrt(cutoff))[2].size == 0
    assert geometry.unit_disk().modes(cutoff) == []


def test_batched_moments_match_per_mode_loop(disk_basis):
    # the point and circle moments evaluate their modes in one Bessel call;
    # the per-mode loop is the reference, bit for bit.  On the centred
    # circle the angular modes average to 0 and an order-0 mode is its value
    # at (r0, 0)
    order0 = disk_basis.params[:, 0] == 0
    for spec, point, keep in ((measures.DiracMeasure(0.3, -0.2), (0.3, -0.2),
                               np.ones(len(disk_basis), dtype=bool)),
                              (measures.CircleMeasure(0.5), (0.5, 0.0),
                               order0)):
        got = measures.compute_moments(spec, disk_basis).moments
        want = np.array([
            disk_basis.mode_values(i, np.array([point[0]]),
                                   np.array([point[1]]))[0] if keep[i]
            else 0.0 for i in range(len(disk_basis))])
        assert np.array_equal(got, want)
