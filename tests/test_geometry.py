import math

import numpy as np
import pytest

from jumpspectra import bessel, cli, geometry, measures, numrange
from jumpspectra.errors import (EmptyBasisError, EvaluationError,
                                ResolutionError)


# --- independent Bessel-zero oracle: power series plus bisection -----------

def bessel_series(order, x, terms=60):
    """J_order(x) by the ascending power series (adequate for x < 70)."""
    x = float(x)
    half = 0.5 * x
    term = half ** order / math.factorial(order)
    total = term
    for k in range(1, terms):
        term *= -(half * half) / (k * (k + order))
        total += term
    return total


def bisect_zero(order, lo, hi, iters=200):
    flo = bessel_series(order, lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = bessel_series(order, mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


ORACLE_ZEROS = {
    (0, 1): bisect_zero(0, 2.0, 3.0),
    (1, 1): bisect_zero(1, 3.0, 4.5),
    (0, 2): bisect_zero(0, 5.0, 6.0),
}


def test_bessel_zero_values():
    assert ORACLE_ZEROS[(0, 1)] == pytest.approx(2.404825557695773, rel=1e-13)
    assert ORACLE_ZEROS[(1, 1)] == pytest.approx(3.831705970207512, rel=1e-13)
    assert ORACLE_ZEROS[(0, 2)] == pytest.approx(5.520078110286311, rel=1e-13)
    for (m, k), val in ORACLE_ZEROS.items():
        assert bessel.bessel_zero(m, k) == pytest.approx(val, rel=1e-12)


def test_bessel_zero_mcmahon_asymptotic():
    # large-index zeros approach the McMahon expansion
    for k in (20, 40):
        beta = (k - 0.25) * math.pi
        approx = beta + 1.0 / (8 * beta)
        assert bessel.bessel_zero(0, k) == pytest.approx(approx, abs=1e-4)


def test_bessel_zero_interlacing():
    for m in range(6):
        for k in range(1, 6):
            assert bessel.bessel_zero(m, k) < bessel.bessel_zero(m + 1, k)
            assert bessel.bessel_zero(m + 1, k) < bessel.bessel_zero(m, k + 1)


def test_bessel_zero_bad_index():
    with pytest.raises(ValueError):
        bessel.bessel_zero(0, 0)


# --- domains ----------------------------------------------------------------

def test_domain_constants():
    disk = geometry.unit_disk()
    assert disk.area == pytest.approx(math.pi)
    assert disk.boundary_weight == pytest.approx(2 * math.pi)
    rect = geometry.rectangle(2.0, 3.0)
    assert rect.area == pytest.approx(6.0)
    assert rect.boundary_weight == pytest.approx(10.0)
    assert rect.inradius == pytest.approx(1.0)


def test_rectangle_bad_sides():
    with pytest.raises(ValueError):
        geometry.rectangle(-1.0, 2.0)


def test_boundary_distance():
    disk = geometry.unit_disk()
    assert disk.boundary_distance(0.0, 0.0) == pytest.approx(1.0)
    rect = geometry.rectangle(2.0, 4.0)
    assert rect.boundary_distance(0.5, 2.0) == pytest.approx(0.5)


# --- basis enumeration -------------------------------------------------------

def test_square_single_mode():
    basis = geometry.build_basis(geometry.rectangle(math.pi, math.pi), 3.0)
    assert len(basis) == 1
    assert basis.eigenvalues[0] == pytest.approx(2.0)
    assert basis.labels[0] == (1, 1)


def test_disk_single_mode():
    basis = geometry.build_basis(geometry.unit_disk(), 6.0)
    assert len(basis) == 1
    assert basis.eigenvalues[0] == pytest.approx(
        ORACLE_ZEROS[(0, 1)] ** 2, rel=1e-12)


def test_empty_basis():
    with pytest.raises(EmptyBasisError):
        geometry.build_basis(geometry.unit_disk(), 1.0)


def test_eigenvalues_sorted_and_positive(disk_basis, rect_basis):
    for basis in (disk_basis, rect_basis):
        eigs = basis.eigenvalues
        assert eigs[0] > 0
        assert np.all(np.diff(eigs) >= 0)
        assert np.all(eigs <= basis.cutoff)


def test_weyl_count(disk_basis):
    expected = disk_basis.domain.area * disk_basis.cutoff / (4 * math.pi)
    ratio = len(disk_basis) / expected
    assert 0.9 <= ratio <= 1.1


def test_one_coefficients(disk_basis, square_basis):
    m11 = square_basis.one_coeffs[0]
    assert m11 == pytest.approx(8.0 / math.pi, rel=1e-14)
    assert m11 == pytest.approx(2.5464790894703255, rel=1e-12)
    # any even index kills the mean coefficient
    m12 = square_basis.one_coeffs[square_basis.labels.index((1, 2))]
    assert m12 == 0.0
    rad1 = disk_basis.one_coeffs[0]
    assert rad1 == pytest.approx(
        2 * math.sqrt(math.pi) / ORACLE_ZEROS[(0, 1)], rel=1e-12)
    assert rad1 == pytest.approx(1.4740810161746825, rel=1e-12)
    ang = next(i for i, label in enumerate(disk_basis.labels) if label[0] == 1)
    assert disk_basis.one_coeffs[ang] == 0.0


def test_one_coeff_cauchy_schwarz(disk_basis, rect_basis):
    for basis in (disk_basis, rect_basis):
        assert np.all(np.abs(basis.one_coeffs)
                      <= math.sqrt(basis.domain.area) + 1e-12)


def test_one_coeff_matches_quadrature(disk_basis_small, square_basis):
    for basis in (disk_basis_small, square_basis):
        rule = basis.quadrature
        for i in range(6):
            quad = rule.integrate(basis.mode_values(i, rule.x, rule.y))
            assert quad == pytest.approx(basis.one_coeffs[i], abs=1e-10)


def test_gram_identity(disk_basis, rect_basis):
    for basis in (disk_basis, rect_basis):
        rule = basis.quadrature
        rows = basis.mode_values(slice(20), rule.x, rule.y)
        gram = (rows * basis.quadrature.w) @ rows.T
        assert np.abs(gram - np.eye(20)).max() < 1e-8


def test_ground_state_positive(disk_basis, rect_basis):
    for basis in (disk_basis, rect_basis):
        rule = basis.quadrature
        vals = basis.mode_values(0, rule.x, rule.y)
        assert np.min(vals) > 0


# --- quadrature --------------------------------------------------------------

def test_quadrature_constants(disk):
    rule = disk.default_quadrature(400.0)
    val = rule.integrate(rule.values(lambda x, y: np.ones_like(x)))
    assert val == pytest.approx(math.pi, abs=1e-10)


def test_quadrature_torsion(disk):
    rule = disk.default_quadrature(400.0)
    val = rule.integrate(rule.values(lambda x, y: (1 - x * x - y * y) / 4))
    assert val == pytest.approx(math.pi / 8, abs=1e-9)


def test_quadrature_mode_norm(square_basis):
    rule = square_basis.quadrature
    val = rule.integrate(square_basis.mode_values(0, rule.x, rule.y) ** 2)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_quadrature_nonfinite_raises(disk):
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError):
            rule = disk.default_quadrature(400.0)
            rule.integrate(rule.values(lambda x, y: x / (x - x)))


def test_resolution_guard(disk):
    with pytest.raises(ResolutionError):
        disk.check_resolution(2000.0, disk.quadrature(8, 16))


# --- layer quadrature and Dirichlet solves ----------------------------------

def test_layer_quadrature_area():
    disk = geometry.unit_disk()
    eps = 1e-3
    rule, s = geometry.layer_quadrature(disk, eps)
    assert s.shape == rule.w.shape
    assert np.sum(rule.w) == pytest.approx(math.pi - math.pi * (1 - eps) ** 2,
                                           rel=1e-12)
    rect = geometry.rectangle(2.0, 3.0)
    rule, s = geometry.layer_quadrature(rect, eps)
    assert s.shape == rule.w.shape
    assert np.sum(rule.w) == pytest.approx(10.0 * eps - 4 * eps * eps,
                                           rel=1e-12)


def test_torsion_functions_disk():
    disk = geometry.unit_disk()
    g = geometry.torsion_function(disk)
    g2 = geometry.torsion_second(disk)
    assert g(np.array([0.0]), np.array([0.0]))[0] == pytest.approx(0.25)
    assert g(np.array([1.0]), np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-15)
    assert g2(np.array([0.0]), np.array([0.0]))[0] == pytest.approx(3.0 / 64)
    # -lap g2 = g by central differences
    h = 1e-4
    for (x, y) in ((0.3, 0.1), (0.5, -0.4)):
        lap = sum(g2(np.array([x + dx]), np.array([y + dy]))[0]
                  for dx, dy in ((h, 0), (-h, 0), (0, h), (0, -h)))
        lap -= 4 * g2(np.array([x]), np.array([y]))[0]
        assert -lap / h ** 2 == pytest.approx(
            g(np.array([x]), np.array([y]))[0], abs=1e-6)


def test_torsion_functions_rectangle():
    rect = geometry.rectangle(math.pi, 1.2337 * math.pi)
    g = geometry.torsion_function(rect)
    g2 = geometry.torsion_second(rect)
    h = 1e-4
    for (x, y) in ((0.7, 0.9), (2.0, 2.5), (0.2, 3.5)):
        lapg = sum(g(np.array([x + dx]), np.array([y + dy]))[0]
                   for dx, dy in ((h, 0), (-h, 0), (0, h), (0, -h)))
        lapg -= 4 * g(np.array([x]), np.array([y]))[0]
        assert -lapg / h ** 2 == pytest.approx(1.0, abs=1e-6)
        lap2 = sum(g2(np.array([x + dx]), np.array([y + dy]))[0]
                   for dx, dy in ((h, 0), (-h, 0), (0, h), (0, -h)))
        lap2 -= 4 * g2(np.array([x]), np.array([y]))[0]
        assert -lap2 / h ** 2 == pytest.approx(
            g(np.array([x]), np.array([y]))[0], abs=1e-6)
    # boundary values vanish
    assert abs(g(np.array([0.0]), np.array([1.0]))[0]) < 1e-14
    assert abs(g2(np.array([math.pi]), np.array([2.0]))[0]) < 1e-12


# --- separable rectangle anchors against the direct per-point series -------

def direct_torsion_series(a, b, x, y, terms=6001):
    """g and g2 on the rectangle, summed term by term at every point.

    The cosh/sinh quotients are written in exponent-shifted form so that
    kappa * b / 2 of several thousand cannot overflow.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.atleast_1d(np.asarray(y, dtype=float)) - b / 2.0
    h = b / 2.0
    g = x * (a - x) / 2.0
    g2 = (x ** 4 - 2.0 * a * x ** 3 + a ** 3 * x) / 24.0
    for m in range(1, terms, 2):
        k = m * math.pi / a
        amp = 4.0 * a * a / (math.pi ** 3 * m ** 3)
        cm = 4.0 * a ** 4 / (math.pi ** 5 * m ** 5)
        bcoef = -(cm + amp * b / (4.0 * k) * math.tanh(k * h))
        denom = 1.0 + math.exp(-2.0 * k * h)
        ch = (np.exp(k * (t - h)) + np.exp(-k * (t + h))) / denom
        sh = (np.exp(k * (t - h)) - np.exp(-k * (t + h))) / denom
        s = np.sin(k * x)
        g -= amp * ch * s
        g2 += (amp / (2.0 * k) * t * sh + bcoef * ch) * s
    return g, g2


@pytest.mark.parametrize("points", ["scattered", "tensor_rule", "single"])
def test_torsion_rectangle_separable_matches_direct_series(points):
    """The separable evaluation tabulates the series on the grid of distinct
    x and distinct y values, so its memory scales with
    (distinct x) x (distinct y): small on a tensor rule, n x n for n
    scattered points, which is why the scattered case stays at 200."""
    a, b = math.pi, 1.2337 * math.pi
    rect = geometry.rectangle(a, b)
    if points == "scattered":
        rng = np.random.default_rng(3)
        x, y = rng.uniform(0.0, a, 200), rng.uniform(0.0, b, 200)
    elif points == "tensor_rule":
        rule = geometry.build_basis(rect, 300.0).quadrature
        x, y = rule.x, rule.y
    else:
        x, y = 1.1, 2.3
    g_ref, g2_ref = direct_torsion_series(a, b, x, y)
    g = geometry.torsion_function(rect)(x, y)
    g2 = geometry.torsion_second(rect)(x, y)
    assert g.shape == g_ref.shape and g2.shape == g2_ref.shape
    np.testing.assert_allclose(g, g_ref, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(g2, g2_ref, rtol=0.0, atol=1e-13)


TINY = 2.2250738585072014e-308          # smallest normal float64


def unflushed_torsion(rect, x, y):
    """g and g2 by the separable series with plain ``np.exp`` everywhere and
    every y factor, subnormal ones included, passed to the product; also
    the exponentials ``exp(kappa (t - h))`` and the y factors of g2."""
    a, b = rect.side_x, rect.side_y
    h = b / 2.0
    ms, kap, amp = rect._series()
    cm = 4.0 * a ** 4 / (math.pi ** 5 * ms ** 5)
    bcoef = -(cm + (amp * b / (4.0 * kap)) * np.tanh(kap * b / 2.0))
    ux, ix = np.unique(x, return_inverse=True)
    uy, iy = np.unique(y, return_inverse=True)
    k, t = kap[:, None], uy - h
    denom = 1.0 + np.exp(-2.0 * k * h)
    ch = (np.exp(k * (t - h)) + np.exp(-k * (t + h))) / denom
    sh = (np.exp(k * (t - h)) - np.exp(-k * (t + h))) / denom
    sines = np.sin(np.multiply.outer(ux, kap))
    y2 = (amp / (2.0 * kap))[:, None] * t * sh + bcoef[:, None] * ch
    g = x * (a - x) / 2.0 - (sines @ (amp[:, None] * ch))[ix, iy]
    g2 = (x ** 4 - 2.0 * a * x ** 3 + a ** 3 * x) / 24.0 + (sines @ y2)[ix, iy]
    return g, g2, np.exp(k * (t - h)), y2


def test_torsion_rectangle_bits_without_subnormals(rect_basis):
    # on the cutoff-2000 rule and on points within 1e-3 of y = 0 and y = b,
    # skipping the subnormal exponentials and flushing the subnormal y
    # factors before the product leaves every bit of g and g2 unchanged
    rect = rect_basis.domain
    rule = rect_basis.quadrature
    gx = rule.axes[0]
    edge = np.concatenate([np.linspace(1e-9, 1e-3, 7),
                           rect.side_y - np.linspace(1e-9, 1e-3, 7)])
    x = np.concatenate([rule.x, np.repeat(gx, edge.size)])
    y = np.concatenate([rule.y, np.tile(edge, gx.size)])
    g_ref, g2_ref, exps, y2 = unflushed_torsion(rect, x, y)
    # both kinds of subnormal occur, so the test sees both shortcuts
    for v in (exps, y2):
        assert np.any((v != 0.0) & (np.abs(v) < TINY))
    assert np.array_equal(geometry.torsion_function(rect)(x, y), g_ref)
    assert np.array_equal(geometry.torsion_second(rect)(x, y), g2_ref)


@pytest.mark.parametrize("name", ["disk_basis", "square_basis", "rect_basis"])
def test_cluster_table_matches_per_cluster_mean(name, request):
    # the grouping and the means of the loop over numpy scalars, with one
    # np.mean per cluster, bit for bit (the square has clusters of 1 to 4)
    basis = request.getfixturevalue(name)
    groups = []
    for i, lam in enumerate(basis.eigenvalues):
        if groups and (lam - basis.eigenvalues[groups[-1][0]]
                       <= geometry.CLUSTER_RTOL * (1.0 + lam)):
            groups[-1].append(i)
        else:
            groups.append([i])
    assert basis.cluster_starts.tolist() == [g[0] for g in groups]
    assert basis.cluster_sizes.tolist() == [len(g) for g in groups]
    assert np.array_equal(
        basis.cluster_means,
        np.array([np.mean(basis.eigenvalues[g]) for g in groups]))
    for column in (basis.cluster_starts, basis.cluster_sizes,
                   basis.cluster_means):
        assert not column.flags.writeable


def test_gauss_legendre_cache_read_only():
    t, w = geometry._leggauss(48)
    assert geometry._leggauss(48)[0] is t
    assert not t.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        t[0] = 0.0
    t_ref, w_ref = np.polynomial.legendre.leggauss(48)
    assert np.array_equal(t, t_ref) and np.array_equal(w, w_ref)
    nodes, weights = geometry._gl_nodes(48, 1.0, 3.0)
    assert np.array_equal(nodes, 1.0 + (t_ref + 1.0))
    assert np.array_equal(weights, w_ref)


@pytest.mark.parametrize("n_bins", [1, 3, 7, 10, 24, 49, 100, 1000])
def test_disk_bin_index_matches_hypot(disk, n_bins):
    # at every annulus edge k / n_bins and one ulp either side, along the
    # axes, the diagonal and a 3-4-5 direction, the sqrt radius with its
    # hypot fallback bins like hypot itself
    edges = np.arange(n_bins + 1) / n_bins
    r = np.concatenate([edges, np.nextafter(edges, -np.inf),
                        np.nextafter(edges, np.inf)])
    directions = [(1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, 0.6),
                  (math.sqrt(0.5), math.sqrt(0.5))]
    bx = np.concatenate([r * c for c, s in directions])
    by = np.concatenate([r * s for c, s in directions])
    rng = np.random.default_rng(n_bins)
    bx = np.concatenate([bx, rng.uniform(-1.0, 1.0, 1000)])
    by = np.concatenate([by, rng.uniform(-1.0, 1.0, 1000)])
    want = np.minimum((np.hypot(bx, by) * n_bins).astype(int), n_bins - 1)
    assert np.array_equal(disk.bin_index(bx, by, n_bins), want)
    assert np.array_equal(
        disk.bin_index(bx.reshape(-1, 5), by.reshape(-1, 5), n_bins),
        want.reshape(-1, 5))


def gauss_cells(edges, n=40):
    """``n`` Gauss-Legendre nodes and weights on each interval between
    ``edges``, one row per interval."""
    t, w = np.polynomial.legendre.leggauss(n)
    lo, hi = edges[:-1, None], edges[1:, None]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * t, 0.5 * (hi - lo) * w


def reference_cell_masses(domain, basis, coeffs, n_bins):
    """Integral of ``sum_n coeffs_n chi_n`` over each occupation cell by a
    40-point Gauss rule per cell and axis (angles on the disk: a trapezoid
    rule exact for every angular order of the basis)."""
    params = basis.params
    if isinstance(domain, geometry.Disk):
        r, wr = gauss_cells(np.linspace(0.0, 1.0, n_bins + 1))
        # 196 angles integrate cos and sin of every order below 196 exactly
        theta = 2.0 * math.pi * np.arange(196) / 196
        field = np.einsum("k,kr,kt->rt", coeffs,
                          domain._radial(params, r.ravel()),
                          domain._angular(params, theta))
        ring = field.sum(axis=1).reshape(r.shape) * (2.0 * math.pi / 196)
        return np.sum(wr * r * ring, axis=1)
    a, b = domain.side_x, domain.side_y
    x, wx = gauss_cells(np.linspace(0.0, a, n_bins + 1))
    y, wy = gauss_cells(np.linspace(0.0, b, n_bins + 1))
    m, n = np.array(basis.labels).T
    sx = np.sin(np.multiply.outer(x.ravel(), m * math.pi / a))
    sy = np.sin(np.multiply.outer(y.ravel(), n * math.pi / b))
    # the separable form agrees with the domain's own mode values
    assert np.allclose(domain.mode_values(params, x.ravel()[:50],
                                          y.ravel()[:50]).T,
                       2.0 / math.sqrt(a * b) * sx[:50] * sy[:50],
                       rtol=0, atol=1e-13)
    field = 2.0 / math.sqrt(a * b) * (sx * coeffs) @ sy.T
    cells = field.reshape(n_bins, x.shape[1], n_bins, y.shape[1])
    return np.einsum("ip,jq,ipjq->ij", wx, wy, cells).ravel()


def cell_coefficients(basis, case):
    """Mode coefficients of the stationary prediction (``w_n / lambda_n``)
    of a restart measure, or a single high mode."""
    domain = basis.domain
    disk = isinstance(domain, geometry.Disk)
    if case.startswith("mode"):
        labels = ([(0, 10, "rad"), (0, 14, "rad")] if disk
                  else [(29, 42), (44, 1)])[int(case[-1])]
        coeffs = np.zeros(len(basis))
        coeffs[basis.labels.index(labels)] = 1.0
        return coeffs
    spec = {"uniform": measures.UniformMeasure(),
            "point_mass": measures.DiracMeasure(*((0.3, -0.2) if disk
                                                  else (1.0, 2.0))),
            "perturbed": measures.PerturbedMeasure(
                measures.UniformMeasure(),
                cli.make_mode_perturbation(basis, {0: 0.7, 1: 0.4, 4: 0.5},
                                           0.02))}[case]
    return measures.compute_moments(spec, basis).moments / basis.eigenvalues


@pytest.mark.parametrize("case", ["uniform", "point_mass", "perturbed",
                                  "mode0", "mode1"])
@pytest.mark.parametrize("n_bins", [8, 24])
@pytest.mark.parametrize("name", ["disk_basis", "rect_basis"])
def test_cell_masses_match_gauss_reference(name, n_bins, case, request):
    # the closed-form cell integrals at cutoff 2000, against a per-cell
    # Gauss rule fine enough to resolve the highest mode in every cell
    basis = request.getfixturevalue(name)
    coeffs = cell_coefficients(basis, case)
    got = basis.domain.cell_masses(basis, coeffs, n_bins)
    want = reference_cell_masses(basis.domain, basis, coeffs, n_bins)
    assert got.shape == want.shape == basis.domain.cell_areas(n_bins).shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# --- rules hand integrands their tensor factors -----------------------------

RATIO = 1.2337
COLLARS = [(n_s, n_tan, eps) for n_s, n_tan in ((32, 256), (48, 384))
           for eps in (0.3, 1e-2, 1e-4)]


def test_rectangle_collar_orientation():
    # x^2 y is odd about neither centre line, so a strip or corner square
    # mirrored or transposed into the wrong place changes the integral
    a, b = math.pi, RATIO * math.pi
    rect = geometry.rectangle(a, b)
    for eps in (0.3, 1e-2, 1e-4):
        rule, _ = geometry.layer_quadrature(rect, eps)
        exact = (a ** 3 * b ** 2 - ((a - eps) ** 3 - eps ** 3)
                 * ((b - eps) ** 2 - eps ** 2)) / 6.0
        val = rule.integrate(rule.values(lambda x, y: x * x * y))
        assert val == pytest.approx(exact, rel=1e-12)


def flat_polar(r, w_r, n_theta):
    """Radii times equispaced angles, flat, the radius varying slowest."""
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    rr, tt = np.repeat(r, n_theta), np.tile(theta, r.size)
    return (rr * np.cos(tt), rr * np.sin(tt),
            np.repeat(w_r, n_theta) * (2.0 * math.pi / n_theta))


def flat_collar(domain, eps, n_s, n_tan):
    """Collar nodes ``(x, y, w, s)`` laid out flat with repeat and tile:
    on the rectangle four side strips (tangent coordinate slowest), then
    the corner squares at (0, 0), (a, 0), (0, b) and (a, b)."""
    if isinstance(domain, geometry.Disk):
        s, ws = geometry._gl_nodes(n_s, 0.0, 1.0)
        r = 1.0 - eps * s
        return flat_polar(r, ws * eps * r, n_tan) + (np.repeat(s, n_tan),)
    a, b = domain.side_x, domain.side_y
    t, wt = geometry._gl_nodes(n_s, 0.0, eps)
    parts = []
    for lo, hi, horizontal, near_low in ((eps, a - eps, True, True),
                                         (eps, a - eps, True, False),
                                         (eps, b - eps, False, True),
                                         (eps, b - eps, False, False)):
        u, wu = geometry._gl_nodes(n_tan, lo, hi)
        along = np.repeat(u, n_s)
        across = np.tile(t if near_low else (b if horizontal else a) - t,
                         n_tan)
        parts.append(((along, across) if horizontal else (across, along))
                     + (np.repeat(wu, n_s) * np.tile(wt, n_tan),
                        np.tile(t, n_tan) / eps))
    X, Y = np.repeat(t, n_s), np.tile(t, n_s)
    for ox, oy, sx, sy in ((0, 0, 1, 1), (a, 0, -1, 1), (0, b, 1, -1),
                           (a, b, -1, -1)):
        parts.append((ox + sx * X, oy + sy * Y,
                      np.repeat(wt, n_s) * np.tile(wt, n_s),
                      np.minimum(X, Y) / eps))
    return tuple(np.concatenate(column) for column in zip(*parts))


def flat_node_rule(domain, rule):
    """Node-rule points and weights from the rule's axes, laid out flat."""
    if isinstance(domain, geometry.Disk):
        r, wr, theta = rule.axes
        return flat_polar(r, wr * r, theta.size)
    gx, wx, gy, wy = rule.axes
    return (np.repeat(gx, gy.size), np.tile(gy, gx.size),
            np.repeat(wx, gy.size) * np.tile(wy, gx.size))


def integrands(basis):
    """Every integrand the measures and the numerical-range probes hand a
    rule: the four densities and the bump and its squared gradient."""
    domain = basis.domain
    v = cli.make_mode_perturbation(basis, {"0": 0.7, "1": 0.4, "4": 0.5},
                                   0.02)
    grid = np.random.default_rng(5).uniform(0.5, 1.5, (9, 12))
    theta, grad_sq, _ = numrange._bump(domain, 0.25)
    return {
        "uniform": measures.UniformMeasure().density(basis),
        "ground_state": measures.GroundStateMeasure().density(basis),
        "perturbed": measures.PerturbedMeasure(
            measures.UniformMeasure(), v).density(basis),
        "density_grid": measures.density_from_grid(grid, domain),
        "theta": theta,
        "grad_sq": grad_sq,
    }


@pytest.mark.parametrize("name", ["disk_basis", "rect_basis"])
@pytest.mark.parametrize("collar", [None] + COLLARS)
def test_rule_values_match_flat_nodes(name, collar, request):
    # the blocks hold the flat layout's nodes, weights and distances, and
    # each integrand on the blocks' factors has every bit of its value at
    # the flat nodes
    basis = request.getfixturevalue(name)
    domain = basis.domain
    if collar is None:
        rule = basis.quadrature
        x, y, w = flat_node_rule(domain, rule)
    else:
        n_s, n_tan, eps = collar
        rule, s = geometry.layer_quadrature(domain, eps, n_s, n_tan)
        x, y, w, s_flat = flat_collar(domain, eps, n_s, n_tan)
        assert np.array_equal(s, s_flat)
    assert np.array_equal(rule.x, x) and np.array_equal(rule.y, y)
    assert np.array_equal(rule.w, w) and rule.n_nodes == w.size
    for label, f in integrands(basis).items():
        vals = rule.values(f)
        assert vals.shape == w.shape, label
        assert np.array_equal(vals, f(x, y)), label
