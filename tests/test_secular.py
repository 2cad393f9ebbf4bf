import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.special import jn_zeros

from jumpspectra import measures, secular
from jumpspectra.cli import make_mode_perturbation
from jumpspectra.errors import (CutoffExceededError, PoleProximityError,
                                UndecidableError)

# classical identity: the uniform-measure secular roots on the disk are the
# squared zeros of the order-2 Bessel function (2 J1(z) = z J0(z))
J21_SQ = 26.374616427163392


def brute_force_secular(lam, cutoff=1e4):
    """Independent oracle: direct radial summation at a much higher cutoff."""
    z = jn_zeros(0, 4000)
    z = z[z ** 2 <= cutoff]
    alpha = 4.0 / z ** 2
    return float(np.sum(alpha / (z ** 2 - lam)))


def test_ground_state_exact(groundstate_disk, disk_basis):
    lam1 = disk_basis.eigenvalues[0]
    for lam in np.linspace(-10, 50, 101):
        if abs(lam - lam1) < 0.3 or abs(lam - 30.471) < 0.3:
            continue
        val, bound = secular.eval_secular(groundstate_disk, lam)
        assert abs(val - 1.0 / (lam1 - lam)) < 1e-10
        assert bound < 1e-8


def test_uniform_disk_value_at_zero(uniform_disk):
    val, bound = secular.eval_secular(uniform_disk, 0.0)
    assert abs(val.real - 0.125) < 1e-8
    assert abs(val.imag) == 0.0
    # the raw truncation is visibly worse than the anchored value
    raw = secular.eval_secular_truncated(uniform_disk, 0.0)
    assert abs(raw.real - 0.125) > 1e-6


def test_uniform_disk_derivative_at_zero(uniform_disk):
    # Rayleigh-type sum: sum j^-6 = 1/192, so the derivative is 4/192 = 1/48
    val = secular.eval_secular_derivative(uniform_disk, 0.0)
    assert val.real == pytest.approx(1.0 / 48.0, abs=1e-10)


def test_uniform_disk_matches_brute_force(uniform_disk):
    for lam in (-5.0, 3.0, 10.0, 20.0):
        val, bound = secular.eval_secular(uniform_disk, lam)
        oracle = brute_force_secular(lam)
        # the oracle itself is truncated at 1e4; allow its own tail
        assert abs(val.real - oracle) < 5e-7


def test_decay_at_minus_infinity(uniform_disk, disk_basis):
    val, _ = secular.eval_secular(uniform_disk, -1e6)
    norm_w = math.pi ** -0.5
    assert abs(val) < 2.0 * math.sqrt(math.pi) * norm_w / 1e6


def test_derivative_positive_between_active_poles(square_basis):
    mom = measures.compute_moments(measures.UniformMeasure(), square_basis)
    s = secular.build_secular_series(square_basis, mom)
    # poles at 2 and 10; the eigenvalues at 5 and 8 carry zero residues
    assert 5.0 not in list(s.poles)
    val = secular.eval_secular_derivative(s, 5.0)
    assert val.real > 0


@settings(max_examples=20, deadline=None)
@given(st.complex_numbers(min_magnitude=0.0, max_magnitude=40.0,
                          allow_nan=False, allow_infinity=False))
def test_conjugate_symmetry(uniform_disk, lam):
    if abs(lam.imag) < 1e-3:
        lam = lam + 0.5j
    a = secular.eval_secular(uniform_disk, lam)[0]
    b = secular.eval_secular(uniform_disk, np.conj(lam))[0]
    assert a == pytest.approx(np.conj(b), rel=1e-12)


def test_residue_extraction(uniform_disk):
    # two-sided limit of (pole - lam) * s(lam) recovers the residue
    pole = uniform_disk.poles[0]
    res = uniform_disk.residues[0]
    eps = 1e-4
    left = (pole - (pole - eps)) * secular.eval_secular(uniform_disk, pole - eps)[0]
    right = (pole - (pole + eps)) * secular.eval_secular(uniform_disk, pole + eps)[0]
    assert 0.5 * (left + right) == pytest.approx(res, abs=1e-8)


@pytest.mark.parametrize("measure", ["uniform", "ground_state"])
def test_residues_match_per_cluster_sum(square_basis, disk_basis, measure):
    # residues and inert poles are those of one np.sum per cluster, bit for
    # bit, on a basis with clusters of 1 to 4 modes and on the disk, and each
    # pole's size is that of its cluster
    spec = {"uniform": measures.UniformMeasure(),
            "ground_state": measures.GroundStateMeasure()}[measure]
    for basis in (square_basis, disk_basis):
        series = secular.build_secular_series(
            basis, measures.compute_moments(spec, basis))
        alpha = basis.one_coeffs * series.moments.moments
        sums = np.array([float(np.sum(alpha[list(g)]))
                         for g in basis.clusters()])
        live = np.abs(sums) > secular.INERT_TOL
        assert np.array_equal(series.residues, sums[live])
        assert np.array_equal(series.poles, basis.cluster_means()[live])
        assert np.array_equal(series.inert_poles, basis.cluster_means()[~live])
        sizes = np.array([len(g) for g in basis.clusters()])
        assert np.array_equal(series.pole_sizes, sizes[live])


def test_inert_poles(uniform_disk, uniform_rect):
    # angular disk modes and even-index rectangle modes drop out
    assert len(uniform_disk.inert_poles) > 0
    assert len(uniform_rect.inert_poles) > 0
    lam2 = uniform_rect.basis.eigenvalues[1]
    assert np.min(np.abs(uniform_rect.inert_poles - lam2)) < 1e-12
    assert np.min(np.abs(uniform_rect.poles - lam2)) > 1.0


def test_pole_proximity_error(uniform_disk):
    with pytest.raises(PoleProximityError):
        secular.eval_secular(uniform_disk, uniform_disk.poles[0])


def test_cutoff_exceeded_error(uniform_disk):
    with pytest.raises(CutoffExceededError):
        secular.eval_secular(uniform_disk, 1999.0)


# --- real roots ---------------------------------------------------------------

def test_uniform_disk_first_root(uniform_disk, disk_basis):
    lam1, lam2 = disk_basis.eigenvalues[0], 30.4713
    roots = secular.real_roots_in(uniform_disk, lam1 + 1e-6, lam2)
    assert len(roots) == 1
    root = roots[0]
    assert root.residual < 1e-12
    # model root sits within the tail-shift bound of the Bessel-zero oracle
    shift = uniform_disk.tail_bound(root.value) / abs(
        secular.eval_secular_derivative(uniform_disk, root.value).real)
    assert abs(root.value - J21_SQ) < max(shift, 1e-3)


def test_no_roots_below_first_eigenvalue(uniform_disk):
    assert secular.real_roots_in(uniform_disk, -100.0, 0.0) == []


def test_ground_state_no_roots(groundstate_disk, disk_basis):
    roots = secular.real_roots_in(groundstate_disk, 0.1,
                                  disk_basis.eigenvalues[1] - 0.5)
    assert roots == []


def test_endpoint_on_pole_rejected(uniform_disk):
    with pytest.raises(PoleProximityError):
        secular.real_roots_in(uniform_disk, uniform_disk.poles[0], 20.0)


def test_undecidable_gap(groundstate_disk):
    # inflating the tail mass makes every sign decision ambiguous
    foggy = dataclasses.replace(groundstate_disk, tail_mass=1e9)
    with pytest.raises(UndecidableError):
        secular.real_roots_in(foggy, 31.0, 49.0)


def test_zero_on_a_grid_node_is_a_root(uniform_disk):
    # negative control: poles x -/+ 1 with unit residues make the model
    # vanish at x exactly; with x a node of the 256-point grid on the gap,
    # neither neighbouring segment changes sign, yet x is a root
    (a, b), = secular._gap_segments(uniform_disk, 1.25, 1.75)
    x = float(np.linspace(a, b, 256)[106])
    exact = dataclasses.replace(uniform_disk,
                                poles=np.array([x - 1.0, x + 1.0]),
                                residues=np.array([1.0, 1.0]))
    assert exact.sum_values(np.array([complex(x)]))[0] == 0j
    assert secular.real_roots_in(exact, 1.25, 1.75) == [
        secular.RealRoot(x, (x, x), 0.0)]
    # moved off the node, the same root is bracketed by a sign change
    nudged = dataclasses.replace(exact, poles=exact.poles + [1e-6, 0.0])
    (root,) = secular.real_roots_in(nudged, 1.25, 1.75)
    assert root.bracket[0] < root.value < root.bracket[1]
    assert root.value == pytest.approx(x + 5e-7, abs=1e-12)


# --- the Brent port against scipy.optimize.brentq ----------------------------

def _random_smooth(rng):
    """One of four smooth families: cubic, tanh plus a ripple, exponential,
    and a six-pole rational function shaped like the secular series."""
    kind = rng.integers(4)
    if kind == 0:
        c = rng.standard_normal(3)
        r = rng.uniform(-2, 2)
        return lambda x: ((x - r) * (1 + c[0] ** 2 + c[1] ** 2 * x * x)
                          + c[2] * (x - r) ** 3)
    if kind == 1:
        k, r = rng.uniform(0.1, 50), rng.uniform(-2, 2)
        e, w = rng.uniform(0, 0.3), rng.uniform(0, 20)
        return lambda x: math.tanh(k * (x - r)) + e * math.sin(w * x)
    if kind == 2:
        c = rng.uniform(0.1, 5)
        return lambda x: math.exp(x) - c
    poles = np.sort(rng.uniform(-3, 3, 6))
    res = rng.uniform(0.1, 2, 6)
    return lambda x: float(np.sum(res / (poles - x)))


def test_brentq_matches_scipy_on_random_brackets():
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 2000:
        f = _random_smooth(rng)
        a, b = np.sort(rng.uniform(-3, 3, 2))
        fa, fb = f(a), f(b)
        if not (math.isfinite(fa) and math.isfinite(fb)) or fa * fb >= 0:
            continue
        xtol = 10.0 ** rng.uniform(-15, -1)
        rtol = 8.9e-16 * 10.0 ** rng.uniform(0, 3)
        expected = scipy_brentq(f, a, b, xtol=xtol, rtol=rtol)
        got = secular.brentq(f, a, b, xtol=xtol, rtol=rtol)
        assert got.hex() == expected.hex(), (a, b, xtol, rtol)
        checked += 1


@pytest.mark.parametrize("case", ["disk-uniform", "disk-dirac", "disk-circle",
                                  "rect-uniform"])
def test_brentq_matches_scipy_on_real_root_brackets(case, disk_basis,
                                                    rect_basis, monkeypatch):
    basis = rect_basis if case.startswith("rect") else disk_basis
    spec = {"uniform": measures.UniformMeasure(),
            "dirac": measures.DiracMeasure(0.3, -0.2),
            "circle": measures.CircleMeasure(0.5)}[case.split("-")[1]]
    series = secular.build_secular_series(
        basis, measures.compute_moments(spec, basis))
    port, brackets = secular.brentq, []

    def both(f, a, b, **kw):
        got = port(f, a, b, **kw)
        assert got.hex() == scipy_brentq(f, a, b, **kw).hex(), (a, b, kw)
        brackets.append((a, b))
        return got

    monkeypatch.setattr(secular, "brentq", both)
    roots = secular.real_roots_in(series, -1.0, 1800.0)
    assert len(brackets) == len(roots) > 0


def test_brentq_raises_like_scipy():
    cases = [
        (lambda x: x * x + 1.0, -1.0, 1.0, {}, ValueError),    # same sign
        (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, {},
         ValueError),                                          # NaN value
        (lambda x: x ** 3 - 2.0, 0.0, 2.0, {"maxiter": 2},
         RuntimeError),                                        # no convergence
    ]
    for f, a, b, kw, exc in cases:
        with pytest.raises(exc):
            scipy_brentq(f, a, b, **kw)
        with pytest.raises(exc):
            secular.brentq(f, a, b, **kw)


# --- complex roots -------------------------------------------------------------

def test_reality_uniform_and_ground_state(uniform_disk, groundstate_disk):
    for series in (uniform_disk, groundstate_disk):
        rep = secular.complex_roots_in(series, (0.0, 60.0, 0.01, 15.0))
        assert rep.complex_roots == ()


def test_left_half_plane_empty(uniform_disk):
    rep = secular.complex_roots_in(uniform_disk, (-100.0, -0.5, 0.5, 10.0))
    assert rep.complex_roots == ()


def companion_roots(series):
    """Independent oracle: zeros of the rational model as polynomial roots."""
    import numpy.polynomial.polynomial as P
    total = None
    for j in range(len(series.poles)):
        pr = np.array([1.0])
        for i in range(len(series.poles)):
            if i != j:
                pr = P.polymul(pr, np.array([series.poles[i], -1.0]))
        term = series.residues[j] * pr
        total = term if total is None else P.polyadd(total, term)
    return P.polyroots(total)


def test_dirac_complex_root_matches_companion(disk_basis):
    mom = measures.compute_moments(measures.DiracMeasure(0.0, 0.0), disk_basis)
    s = secular.build_secular_series(disk_basis, mom)
    rep = secular.complex_roots_in(s, (0.0, 120.0, 0.01, 40.0))
    assert len(rep.complex_roots) == 1
    found = rep.complex_roots[0].value
    oracle = [z for z in companion_roots(s)
              if z.imag > 0.01 and 0 <= z.real <= 120 and z.imag <= 40]
    assert len(oracle) == 1
    assert found == pytest.approx(oracle[0], rel=1e-9)
    assert rep.complex_roots[0].residual < 1e-10


def test_symmetric_box_counts_conjugates(disk_basis):
    mom = measures.compute_moments(measures.DiracMeasure(0.0, 0.0), disk_basis)
    s = secular.build_secular_series(disk_basis, mom)
    rep = secular.complex_roots_in(s, (0.0, 120.0, -40.0, 40.0))
    # only the upper representative is reported; the conjugate is implied
    assert len(rep.complex_roots) == 1
    assert rep.complex_roots[0].value.imag > 0


def test_count_boxes_consistent(disk_basis):
    # argument-principle self-consistency: the count over the queried box
    # equals the number of refined roots returned for it
    mom = measures.compute_moments(measures.DiracMeasure(0.0, 0.0), disk_basis)
    s = secular.build_secular_series(disk_basis, mom)
    rep = secular.complex_roots_in(s, (0.0, 120.0, 0.01, 40.0))
    assert rep.zero_count_boxes[0].count == len(rep.complex_roots)


def test_asymmetric_axis_box_rejected(uniform_disk):
    with pytest.raises(ValueError):
        secular.complex_roots_in(uniform_disk, (0.0, 10.0, -1.0, 2.0))


@pytest.mark.parametrize("corner", [complex(math.nan, 1.0),
                                    complex(-math.inf, 1.0)])
def test_non_finite_edge_is_undecidable(uniform_disk, corner):
    # a NaN or infinite corner leaves the edge integral non-finite at every
    # depth; it is refused rather than split down to depth 24 (started at
    # depth 20, code that splits it returns NaN within 2^4 splits, not 2^24)
    with np.errstate(invalid="ignore", divide="ignore"), \
            pytest.raises(UndecidableError, match="not finite"):
        secular._edge_integral(uniform_disk, complex(5.0, 1.0), corner, 20)


# --- the contour integrand ---------------------------------------------------

CONTOUR_SEGMENTS = [(5 + 0.5j, 40 + 0.5j), (0.01j, 120 + 0.01j),
                    (120 + 0.01j, 120 + 40j), (120 + 40j, 40j),
                    (20 + 1j, 30 + 1j), (70 + 10j, 90 + 10j)]


@pytest.mark.parametrize("measure", ["uniform", "dirac"])
def test_segment_integral_matches_log_derivative(disk_basis, uniform_disk,
                                                 measure):
    # the shared-reciprocal integrand against sum_derivative / sum_values
    # on the same 16 Gauss-Legendre nodes
    if measure == "uniform":
        series = uniform_disk
    else:
        mom = measures.compute_moments(measures.DiracMeasure(0.0, 0.0),
                                       disk_basis)
        series = secular.build_secular_series(disk_basis, mom)
    t, w = np.polynomial.legendre.leggauss(16)
    for z0, z1 in CONTOUR_SEGMENTS:
        half = 0.5 * (z1 - z0)
        z = 0.5 * (z0 + z1) + half * t
        want = half * np.sum(w * series.sum_derivative(z)
                             / series.sum_values(z))
        got = secular._segment_integral(series, z0, z1)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_edge_integral_two_segments_per_split(uniform_disk, monkeypatch):
    # each split integrates its two halves once; the halves are the next
    # level's whole segments, so an edge with k splits costs 1 + 2k segments
    calls = {"segment": 0, "edge": 0}
    segment, edge = secular._segment_integral, secular._edge_integral

    def counted_segment(*args):
        calls["segment"] += 1
        return segment(*args)

    def counted_edge(*args):
        calls["edge"] += 1
        return edge(*args)

    monkeypatch.setattr(secular, "_segment_integral", counted_segment)
    monkeypatch.setattr(secular, "_edge_integral", counted_edge)
    secular._edge_integral(uniform_disk, 5 + 0.5j, 40 + 0.5j)
    assert calls["edge"] > 1
    assert calls["segment"] == 1 + 2 * calls["edge"]


# --- blocked pole sums -------------------------------------------------------

@pytest.fixture(scope="module")
def perturbed_rect(rect_basis):
    """The cutoff-2000 rectangle series of a perturbation on modes {0, 1, 4},
    the shape of the benchmark's certificate workload."""
    v = make_mode_perturbation(rect_basis, {0: 0.7, 1: 0.4, 4: 0.5}, 0.02)
    spec = measures.PerturbedMeasure(measures.UniformMeasure(), v)
    return secular.build_secular_series(
        rect_basis, measures.compute_moments(spec, rect_basis))


def root_grid(series):
    """The sign-test grid of ``real_roots_in`` on the third gap."""
    a, b = secular._gap_segments(series, series.poles[2], series.poles[3])[0]
    return np.linspace(a, b, secular._ROOT_GRID).astype(complex)


def test_blocked_pole_sums_keep_every_bit(perturbed_rect):
    series = perturbed_rect
    rows = secular._SUM_TERMS // series.poles.size
    # poles beyond the point on either side make |Re| of pole - z both
    # larger and smaller than |Im|
    re, im = np.meshgrid(np.linspace(-50.0, 1500.0, 23),
                         np.linspace(0.5, 900.0, 19), indexing="ij")
    for lam in (root_grid(series), re + 1j * im, np.complex128(37.5 + 2j)):
        assert lam.size == 1 or lam.size > rows
        d = series.poles - np.asarray(lam)[..., None]
        values = np.sum(series.residues / d, axis=-1)
        derivative = np.sum(series.residues / d ** 2, axis=-1)
        assert np.array_equal(series.sum_values(lam), values)
        assert np.array_equal(series.sum_derivative(lam), derivative)


def test_pole_sum_temporaries_stay_small(perturbed_rect):
    # as one block, a sign-test grid would make 4 MB of temporaries
    xs = root_grid(perturbed_rect)
    tracemalloc.start()
    try:
        perturbed_rect.sum_values(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024
