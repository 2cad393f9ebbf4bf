"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from jumpspectra import cli
from jumpspectra import enclosure as en
from jumpspectra import geometry, measures, numrange as nr
from jumpspectra import resolvent as rv
from jumpspectra import secular, spectrum as sp, stochastic as st
from jumpspectra.errors import DomainMembershipError

WINDOW = (-1.0, 60.0, -15.0, 15.0)
SEARCH = (0.0, 60.0, 0.01, 15.0)


class criterion:
    """Times a criterion body and prints one verdict line."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:>2}] {verdict} {elapsed:7.2f}s "
              f"(budget {self.budget:g}s)  {self.label}")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"criterion {self.number} exceeded its runtime budget"
        return False


def random_unit_v(basis, rng):
    """Coefficients of a random zero-mean combination of the first 12
    modes, and its values at the quadrature nodes."""
    n_pick = int(rng.integers(3, 6))
    idxs = sorted(rng.choice(np.arange(0, 12), size=n_pick, replace=False))
    coefs = rng.standard_normal(n_pick)
    v = cli.make_mode_perturbation(basis, dict(zip(idxs, coefs)), 1.0)
    rule = basis.quadrature
    live = np.flatnonzero(v)
    return v, v[live] @ basis.mode_values(live, rule.x, rule.y)


def random_admissible_uniform_v(basis, rng, k=2):
    """Random perturbation meeting the uniform-base hypothesis at level k."""
    v, vals = random_unit_v(basis, rng)
    norm = math.sqrt(float(v @ v))
    spec0 = measures.PerturbedMeasure(measures.UniformMeasure(),
                                      np.zeros(len(basis)))
    threshold = measures.check_hypothesis_v(spec0, basis, k).threshold
    base_min = 1.0 / basis.domain.area
    target = threshold * float(rng.uniform(0.4, 0.85))
    scale = target / norm
    floor = float(np.min(vals) * scale)
    if base_min + floor < 0:
        scale *= 0.9 * base_min / abs(floor)
    return scale * v


def random_admissible_groundstate_v(basis, rng):
    v, vals = random_unit_v(basis, rng)
    norm = math.sqrt(float(v @ v))
    rule = basis.quadrature
    base = measures.GroundStateMeasure().density(basis)(rule.x, rule.y)
    threshold = basis.domain.area ** -0.5
    scale = threshold * float(rng.uniform(0.3, 0.7)) / norm
    ratio = np.min(base + scale * vals)
    while ratio < 0:
        scale *= 0.7
        ratio = np.min(base + scale * vals)
    return scale * v


# ---------------------------------------------------------------------------

def test_criterion_1_ground_state_exactness(groundstate_disk, disk_basis):
    with criterion(1, "ground-state secular and spectrum identity", 10.0):
        lam1 = disk_basis.eigenvalues[0]
        poles = list(disk_basis.eigenvalues[disk_basis.eigenvalues <= 55.0])
        grid = np.linspace(-10.0, 50.0, 100)
        checked = 0
        for lam in grid:
            if min(abs(lam - p) for p in poles) < 0.5:
                continue
            val, _ = secular.eval_secular(groundstate_disk, lam)
            assert abs(val - 1.0 / (lam1 - lam)) < 1e-8
            checked += 1
        assert checked >= 80
        rep = sp.assemble_spectrum(groundstate_disk, (-1.0, 31.0, -15.0, 15.0))
        certified = sorted(v.real for v in rep.certified_values())
        expected = [0.0] + sorted(set(
            float(l) for l in disk_basis.eigenvalues
            if l <= 31.0 and abs(l - lam1) > 1e-9))
        assert len(certified) == len(expected)
        for got, want in zip(certified, expected):
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_criterion_2_secular_closed_form(disk_basis):
    with criterion(2, "uniform-disk secular value 1/8 at the origin", 5.0):
        mom = measures.compute_moments(measures.UniformMeasure(), disk_basis)
        series = secular.build_secular_series(disk_basis, mom)
        assert series.basis.cutoff == 2000.0
        val, _ = secular.eval_secular(series, 0.0)
        assert abs(val.real - 0.125) < 1e-6
        assert val.imag == 0.0


def test_criterion_3_reality(uniform_disk, groundstate_disk, rect_basis):
    with criterion(3, "no nonreal roots for the two unperturbed measures",
                   60.0):
        cases = [uniform_disk, groundstate_disk]
        for spec in (measures.UniformMeasure(), measures.GroundStateMeasure()):
            mom = measures.compute_moments(spec, rect_basis)
            cases.append(secular.build_secular_series(rect_basis, mom))
        for series in cases:
            rep = secular.complex_roots_in(series, SEARCH)
            assert rep.complex_roots == ()


@pytest.fixture(scope="module")
def rect_runs(rect_basis):
    """Criterion 4/5/6 rectangle family: one fixed + five random draws."""
    rng = np.random.default_rng(20240817)
    runs = []
    vs = [cli.make_mode_perturbation(rect_basis, {0: 0.7, 1: 0.4, 4: 0.5}, 0.02)]
    for _ in range(5):
        vs.append(random_admissible_uniform_v(rect_basis, rng))
    for v in vs:
        spec = measures.PerturbedMeasure(measures.UniformMeasure(), v)
        cert = measures.check_hypothesis_v(spec, rect_basis, 2)
        mom = measures.compute_moments(spec, rect_basis)
        series = secular.build_secular_series(rect_basis, mom)
        runs.append((spec, cert, mom, series))
    return runs


def test_criterion_4_interlacing(rect_runs, rect_basis):
    with criterion(4, "one eigenvalue in the first gap, cutoff-stable", 30.0):
        spec, cert, mom, series = rect_runs[0]
        assert cert.passed, "the level-2 hypothesis must be verified"
        inter = en.check_interlacing(series, cert, 2)
        assert inter.verdict == en.PASS
        assert inter.intervals[0][1] == 1
        root = inter.intervals[0][2]

        # the same perturbation on the doubled basis, whose first modes
        # are those of rect_basis
        doubled = geometry.build_basis(rect_basis.domain, 4000.0)
        assert doubled.labels[:len(rect_basis)] == rect_basis.labels
        v2 = np.zeros(len(doubled))
        v2[:len(rect_basis)] = spec.v
        spec2 = measures.PerturbedMeasure(spec.base, v2)
        mom2 = measures.compute_moments(spec2, doubled)
        series2 = secular.build_secular_series(doubled, mom2)
        cert2 = measures.check_hypothesis_v(spec2, doubled, 2)
        inter2 = en.check_interlacing(series2, cert2, 2)
        assert inter2.verdict == en.PASS
        assert inter2.intervals[0][1] == 1
        assert abs(inter2.intervals[0][2] - root) < 1e-2


@pytest.fixture(scope="module")
def disk_gs_runs(disk_basis):
    rng = np.random.default_rng(99)
    runs = []
    for _ in range(5):
        v = random_admissible_groundstate_v(disk_basis, rng)
        spec = measures.PerturbedMeasure(measures.GroundStateMeasure(), v)
        cert = measures.check_hypothesis_v(spec, disk_basis, 1)
        mom = measures.compute_moments(spec, disk_basis)
        series = secular.build_secular_series(disk_basis, mom)
        runs.append((spec, cert, mom, series))
    return runs


def test_criterion_5_enclosures(rect_runs, disk_gs_runs, rect_basis,
                                disk_basis):
    with criterion(5, "half-plane and nested enclosures over 10 random "
                      "admissible perturbations", 300.0):
        for spec, cert, mom, series in rect_runs[1:]:
            assert cert.passed
            rep = sp.assemble_spectrum(series, WINDOW)
            res = en.check_halfplane_exclusion(rep, cert, 2, rect_basis)
            assert res.verdict == en.PASS, res.detail
        for spec, cert, mom, series in disk_gs_runs:
            assert cert.passed
            rep = sp.assemble_spectrum(series, WINDOW)
            res = en.check_nested_enclosure(rep, cert, disk_basis)
            assert res.verdict == en.PASS, res.detail


def test_criterion_6_first_eigenvalue_bound(rect_runs):
    with criterion(6, "two-pole remainder bound at the located eigenvalue",
                   60.0):
        for spec, cert, mom, series in rect_runs:
            res = en.bound_first_eigenvalue(series, cert)
            assert res.verdict == en.PASS, res.detail
            assert res.margin is not None and res.margin >= 0


def test_criterion_7_resolvent_identities(uniform_disk, groundstate_disk):
    with criterion(7, "resolvent, adjoint and kernel identities", 20.0):
        for series in (uniform_disk, groundstate_disk):
            for lam in (-1.0, -5.0):
                assert rv.resolvent_identity_defect(series, lam,
                                                    n_probes=20) < 1e-8
                assert rv.adjoint_pairing_defect(series, lam,
                                                 n_probes=20) < 1e-8
            assert rv.adjoint_kernel_defect(series) < 1e-8
            assert rv.selfadjointness_defect(series) > 1e-6


def test_criterion_8_numrange_blowup(disk_basis_small):
    with criterion(8, "quotient blow-up slope -1/2 in four directions", 60.0):
        eps = np.logspace(-4, -2, 9)
        samples = nr.sweep(disk_basis_small, measures.UniformMeasure(), eps)
        assert max(s.mean_defect for s in samples) < 1e-8
        for d in nr.DIRECTIONS:
            fit = nr.blowup_fit(samples, d)
            assert abs(fit.slope + 0.5) <= 0.05
            assert abs(fit.intercept - math.log(2.0)) <= 0.1


def test_criterion_9_figure(disk_basis):
    with criterion(9, "nested-enclosure figure reproduction", 60.0):
        curves = en.emit_matryoshka_curves(disk_basis,
                                           thresholds=(0.1, 0.2, 0.3, 0.4))
        F = curves.field_values
        assert F.size == 180_000
        ts = sorted(curves.thresholds)
        for a, b in zip(ts, ts[1:]):
            assert np.all((F <= a) <= (F <= b))
        # each displayed Dirichlet eigenvalue except the first is enclosed
        j_mid = np.argmin(np.abs(curves.im_grid))
        lam1 = disk_basis.eigenvalues[0]
        for lam in sorted(set(np.round(disk_basis.eigenvalues, 9))):
            if lam > 60.0:
                break
            i = np.argmin(np.abs(curves.re_grid - lam))
            if abs(lam - lam1) < 1e-9:
                assert F[i, j_mid] > 0.4      # no curve shields the first one
            else:
                assert F[i, j_mid] <= 0.1
        from jumpspectra.svgfig import render_enclosure_svg
        svg = render_enclosure_svg(curves, disk_basis)
        assert svg.startswith("<svg") and "<polyline" in svg


def test_criterion_10_stochastic(disk_basis, uniform_disk, groundstate_disk):
    with criterion(10, "occupation histograms match the spectral profile",
                   600.0):
        config = st.WalkConfig()        # dt 1e-5, 1e5 steps, 1e3 paths
        run_u = st.simulate_occupation(config, measures.UniformMeasure(),
                                       disk_basis)
        edges = np.linspace(0.0, 1.0, config.n_bins + 1)
        # analytic profile 2(1 - r^2)/pi, averaged exactly per annulus
        lo, hi = edges[:-1], edges[1:]
        mass = 2.0 * (hi ** 2 - lo ** 2) - (hi ** 4 - lo ** 4)
        exact = mass / run_u.bin_areas
        d_u = st.compare_stationary(run_u, exact)
        assert d_u < 0.05

        run_g = st.simulate_occupation(config, measures.GroundStateMeasure(),
                                       disk_basis)
        pred_g = st.stationary_prediction(groundstate_disk, run_g)
        d_g = st.compare_stationary(run_g, pred_g)
        assert d_g < 0.05


def test_criterion_11_negative_controls(uniform_disk, disk_basis, tmp_path):
    with criterion(11, "fault injection and inadmissibility surface loudly",
                   60.0):
        # corrupted moments break the resolvent identity of criterion 7
        tampered = uniform_disk.moments.with_moments(
            uniform_disk.moments.moments + 1e-3)
        with pytest.raises(DomainMembershipError):
            rv.resolvent_identity_defect(uniform_disk, -1.0, n_probes=1,
                                         generator_moments=tampered)
        # an inadmissible perturbation yields "inapplicable", never "fail",
        # and the exit-code contract maps it to 3
        v = cli.make_mode_perturbation(disk_basis, {1: 1.0}, 0.25)
        spec = measures.PerturbedMeasure(measures.UniformMeasure(), v)
        cert = measures.check_hypothesis_v(spec, disk_basis, 2)
        assert not cert.passed
        rep = sp.SpectrumReport((), WINDOW, None, None)
        res = en.check_halfplane_exclusion(rep, cert, 2, disk_basis)
        assert res.verdict == en.INAPPLICABLE
        cfg = {"version": 1, "domain": {"kind": "disk"},
               "measure": {"variant": "perturbed", "base": "uniform",
                           "v_modes": {"1": 1.0}, "v_scale": 0.25},
               "cutoff": 400.0, "window": [-1.0, 32.0, -10.0, 10.0],
               "tasks": ["spectrum"], "seed": 7}
        path = tmp_path / "inadmissible.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["verify", str(path), "--out",
                         str(tmp_path / "out")]) == cli.EXIT_UNDECIDED
