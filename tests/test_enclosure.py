import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jumpspectra import cli, enclosure as en
from jumpspectra import measures, secular, spectrum as sp
from jumpspectra.cli import make_mode_perturbation
from jumpspectra.geometry import build_basis
from jumpspectra.svgfig import render_enclosure_svg


@pytest.fixture(scope="module")
def rect_admissible(rect_basis):
    v = make_mode_perturbation(rect_basis, {0: 0.7, 1: 0.4, 4: 0.5}, 0.02)
    spec = measures.PerturbedMeasure(measures.UniformMeasure(), v)
    cert = measures.check_hypothesis_v(spec, rect_basis, 2)
    mom = measures.compute_moments(spec, rect_basis)
    series = secular.build_secular_series(rect_basis, mom)
    rep = sp.assemble_spectrum(series, (-1.0, 60.0, -15.0, 15.0))
    return spec, cert, mom, series, rep


def test_halfplane_thresholds_monotone(disk_basis):
    ts = [en.halfplane_threshold(disk_basis, k) for k in range(1, 6)]
    assert all(a <= b for a, b in zip(ts, ts[1:]))
    assert ts[0] == pytest.approx(
        0.5 * (disk_basis.eigenvalues[0] + disk_basis.eigenvalues[1]))
    assert ts[0] == pytest.approx(10.2326, abs=1e-4)


def test_halfplane_membership():
    assert en.in_halfplane(3 + 1j, 5.0)
    assert not en.in_halfplane(3 + 0j, 5.0)       # real points excluded
    assert not en.in_halfplane(6 + 1j, 5.0)


def test_matryoshka_ratio_probe(disk_basis):
    # hand-checked membership probe
    ratio = float(en.matryoshka_ratio(np.array([20 + 5j]), disk_basis)[0])
    assert ratio == pytest.approx(0.4843534, abs=1e-6)
    assert ratio > 0.1      # certified outside the t = 0.1 enclosure


def test_matryoshka_monotone_in_t(disk_basis):
    pts = np.array([10 + 2j, 15 + 1j, 30 + 4j, 50 + 0.5j])
    for t1, t2 in ((0.1, 0.2), (0.2, 0.4)):
        # nonreal points the threshold-t enclosure cannot exclude
        m1 = en.matryoshka_ratio(pts, disk_basis) <= t1
        m2 = en.matryoshka_ratio(pts, disk_basis) <= t2
        assert np.all(m2 | ~m1)


def test_thm1_vacuous_uniform(uniform_disk, disk_basis):
    spec = measures.PerturbedMeasure(
        measures.UniformMeasure(), np.zeros(len(disk_basis)))
    cert = measures.check_hypothesis_v(spec, disk_basis, 1)
    rep = sp.assemble_spectrum(uniform_disk, (-1.0, 60.0, -15.0, 15.0))
    res = en.check_halfplane_exclusion(rep, cert, 1, disk_basis)
    assert res.verdict == en.PASS
    assert res.offenders == ()


def test_thm1_rectangle(rect_admissible, rect_basis):
    _, cert, _, _, rep = rect_admissible
    assert cert.passed
    res = en.check_halfplane_exclusion(rep, cert, 2, rect_basis)
    assert res.verdict == en.PASS


def test_thm1_gate_inapplicable(rect_basis):
    v = make_mode_perturbation(rect_basis, {0: 0.8, 1: 0.3, 4: 0.4}, 0.8)
    spec = measures.PerturbedMeasure(measures.UniformMeasure(), v)
    cert = measures.check_hypothesis_v(spec, rect_basis, 2)
    assert not cert.passed
    rep = sp.SpectrumReport((), (-1, 60, -15, 15), None, None)
    res = en.check_halfplane_exclusion(rep, cert, 2, rect_basis)
    assert res.verdict == en.INAPPLICABLE      # a failed gate never "fails"


def test_thm1_wrong_base_inapplicable(disk_basis):
    spec = measures.PerturbedMeasure(
        measures.GroundStateMeasure(), np.zeros(len(disk_basis)))
    cert = measures.check_hypothesis_v(spec, disk_basis, 1)
    rep = sp.SpectrumReport((), (-1, 60, -15, 15), None, None)
    res = en.check_halfplane_exclusion(rep, cert, 1, disk_basis)
    assert res.verdict == en.INAPPLICABLE


def test_interlacing_rectangle(rect_admissible):
    _, cert, _, series, _ = rect_admissible
    res = en.check_interlacing(series, cert, 2)
    assert res.verdict == en.PASS
    assert res.name == "interlacing[k=2]"
    (interval, count, root) = res.intervals[0]
    assert count == 1
    assert interval[0] < root < interval[1]


def test_derivative_positive_on_gap_grid(rect_admissible):
    # under the admissibility hypothesis the secular derivative stays
    # positive across the first active gap
    _, cert, _, series, _ = rect_admissible
    assert cert.passed
    lo, hi = series.poles[0], series.poles[1]
    for lam in np.linspace(lo + 1e-3, hi - 1e-3, 40):
        assert secular.eval_secular_derivative(series, lam).real > 0


def test_interlacing_k1_vacuous(rect_admissible):
    # level 1 has no gap between active poles, so there is nothing to certify
    _, cert, _, series, _ = rect_admissible
    res = en.check_interlacing(series, cert, 1)
    assert res.verdict == en.INAPPLICABLE
    assert res.detail == "no gap lies below the first active pole"
    assert res.intervals == ()


def test_interlacing_degenerate_inapplicable(square_basis):
    # on the square the second active pole (1,3)/(3,1) is degenerate
    spec = measures.PerturbedMeasure(
        measures.UniformMeasure(), np.zeros(len(square_basis)))
    cert = measures.check_hypothesis_v(spec, square_basis, 2)
    mom = measures.compute_moments(spec, square_basis)
    series = secular.build_secular_series(square_basis, mom)
    res = en.check_interlacing(series, cert, 2)
    assert res.verdict == en.INAPPLICABLE
    assert "degenerate" in res.detail


def test_first_eigenvalue_bound(rect_admissible):
    _, cert, _, series, _ = rect_admissible
    res = en.bound_first_eigenvalue(series, cert)
    assert res.verdict == en.PASS
    assert res.margin is not None and res.margin > 0


def test_first_eigenvalue_bound_needs_level_2(rect_admissible, rect_basis):
    # a level-1 certificate does not give the level-2 hypothesis, even for
    # a perturbation that meets it
    spec, _, _, series, _ = rect_admissible
    cert = measures.check_hypothesis_v(spec, rect_basis, 1)
    assert cert.passed
    res = en.bound_first_eigenvalue(series, cert)
    assert res.verdict == en.INAPPLICABLE
    assert "level-2" in res.detail


def test_first_eigenvalue_bound_groundstate_inapplicable(disk_basis):
    v = make_mode_perturbation(disk_basis, {0: 0.4, 5: 0.6}, 0.02)
    spec = measures.PerturbedMeasure(measures.GroundStateMeasure(), v)
    cert = measures.check_hypothesis_v(spec, disk_basis, 2)
    mom = measures.compute_moments(spec, disk_basis)
    series = secular.build_secular_series(disk_basis, mom)
    res = en.bound_first_eigenvalue(series, cert)
    assert res.verdict == en.INAPPLICABLE


def test_nested_enclosure_vacuous(groundstate_disk, disk_basis):
    spec = measures.PerturbedMeasure(
        measures.GroundStateMeasure(), np.zeros(len(disk_basis)))
    cert = measures.check_hypothesis_v(spec, disk_basis, 1)
    # v = 0 leaves the base's moments as they are
    assert np.array_equal(measures.compute_moments(spec, disk_basis).moments,
                          groundstate_disk.moments.moments)
    rep = sp.assemble_spectrum(groundstate_disk, (-1.0, 60.0, -15.0, 15.0))
    res = en.check_nested_enclosure(rep, cert, disk_basis)
    assert res.verdict == en.PASS      # no nonreal entries at all


def test_nested_enclosure_gate(disk_basis):
    spec = measures.PerturbedMeasure(
        measures.UniformMeasure(), np.zeros(len(disk_basis)))
    cert = measures.check_hypothesis_v(spec, disk_basis, 1)
    rep = sp.SpectrumReport((), (-1, 60, -15, 15), None, None)
    res = en.check_nested_enclosure(rep, cert, disk_basis)
    assert res.verdict == en.INAPPLICABLE


# --- enclosure field ------------------------------------------------------------

def brute_force_distance(lam, basis):
    # distance to every retained eigenvalue, then to the ray [cutoff, inf)
    # that stands for the modes above the cutoff
    d = np.full(lam.shape, np.inf)
    for e in basis.eigenvalues:
        d = np.minimum(d, np.abs(lam - e))
    c = basis.cutoff
    ray = np.where(lam.real >= c, np.abs(lam.imag),
                   np.hypot(c - lam.real, lam.imag))
    return np.minimum(d, ray)


@pytest.mark.parametrize("name", ["disk", "rect"])
@pytest.mark.parametrize("cutoff", [400.0, 2000.0])
def test_field_matches_brute_force(name, cutoff, disk_basis, rect_basis):
    basis = {"disk": disk_basis, "rect": rect_basis}[name]
    if cutoff != basis.cutoff:
        basis = build_basis(basis.domain, cutoff)
    e, c = basis.eigenvalues, basis.cutoff
    # the default figure-1 grid
    re_grid, im_grid = np.linspace(0.0, 60.0, 600), np.linspace(-15.0, 15.0, 300)
    RE, IM = np.meshgrid(re_grid, im_grid, indexing="ij")
    grid = RE + 1j * IM
    # left of lambda_1, on eigenvalues, between them, past the last one and
    # beyond the cutoff, plus the first double eigenvalue (the disk has
    # them, the incommensurate rectangle not); on and off the real axis
    double = e[:-1][np.diff(e) == 0.0][:1]
    assert double.size == (name == "disk")
    re = np.concatenate([[-5.0, 0.0, e[0] - 1.0, e[0], e[1],
                          0.5 * (e[1] + e[2]), e[-1], 0.5 * (e[-1] + c), c,
                          c + 7.5, 2.0 * c], double])
    im = np.array([0.0, -0.0, 1e-12, 0.5, -3.0, 15.0])
    extra = (re[:, None] + 1j * im[None, :]).ravel()

    ref_grid = brute_force_distance(grid, basis)
    ref_extra = brute_force_distance(extra, basis)
    assert np.array_equal(en.spectral_distance(grid, basis), ref_grid)
    assert np.array_equal(en.spectral_distance(extra, basis), ref_extra)
    assert np.array_equal(en.ratio_field(basis, re_grid, im_grid),
                          ref_grid / np.abs(e[0] - grid))
    with np.errstate(invalid="ignore"):     # 0 / 0 at lambda_1 itself
        assert np.array_equal(en.matryoshka_ratio(extra, basis),
                              ref_extra / np.abs(e[0] - extra),
                              equal_nan=True)


# --- curves -------------------------------------------------------------------

@pytest.fixture(scope="module")
def disk_curves(disk_basis):
    return en.emit_matryoshka_curves(disk_basis)


def test_matryoshka_nesting_on_grid(disk_curves):
    F = disk_curves.field_values
    assert F.size == 180_000
    ts = sorted(disk_curves.thresholds)
    for a, b in zip(ts, ts[1:]):
        assert np.all((F <= a) <= (F <= b))


def test_matryoshka_t_zero_degenerates(disk_basis):
    curves = en.emit_matryoshka_curves(disk_basis, thresholds=(0.0,),
                                       resolution=(60, 30))
    pts = {round(p[0][0], 9) for p in curves.curves[0.0]}
    eigs = {round(float(l), 9) for l in disk_basis.eigenvalues if l <= 60.0}
    assert pts == eigs


def test_curves_enclose_eigenvalues_except_first(disk_curves, disk_basis):
    F = disk_curves.field_values
    re_grid, im_grid = disk_curves.re_grid, disk_curves.im_grid
    j_mid = np.argmin(np.abs(im_grid))
    lam1 = disk_basis.eigenvalues[0]
    seen = set()
    for lam in disk_basis.eigenvalues:
        if lam > 60.0 or round(float(lam), 6) in seen:
            continue
        seen.add(round(float(lam), 6))
        i = np.argmin(np.abs(re_grid - lam))
        member = F[i, j_mid] <= 0.1
        if abs(lam - lam1) < 1e-9:
            # the ratio tends to 1 near the first eigenvalue: no curve there
            assert not member
        else:
            assert member


def test_curve_localisation_near_second_eigenvalue(disk_curves, disk_basis):
    # triangle-inequality bound: boundary points of the t = 0.1 loop around
    # lam_2 stay within t (lam_2 - lam_1)/(1 - t) of lam_2, up to a grid cell
    lam1, lam2 = disk_basis.eigenvalues[0], disk_basis.eigenvalues[1]
    bound = 0.1 * (lam2 - lam1) / 0.9
    cell = math.hypot(60.0 / 599, 30.0 / 299)
    near = []
    for poly in disk_curves.curves[0.1]:
        for (re, im) in poly:
            if abs(complex(re, im) - lam2) < 3.0:
                near.append(abs(complex(re, im) - lam2))
    assert near
    assert max(near) <= bound + cell
    assert bound == pytest.approx(0.98878, abs=1e-4)


def test_svg_rendering(disk_curves, disk_basis):
    svg = render_enclosure_svg(disk_curves, disk_basis)
    assert svg.startswith("<svg")
    assert svg.count("<polyline") >= 4
    assert "<circle" in svg
    assert "threshold 0.1" in svg
    assert svg == render_enclosure_svg(disk_curves, disk_basis)


def test_curves_csv(disk_curves):
    text = disk_curves.to_csv()
    header, first = text.split("\n", 2)[:2]
    assert header == "threshold,curve_id,re,im"
    assert len(first.split(",")) == 4


# --- marching squares -----------------------------------------------------------
# The per-cell loop that the case table replaced, kept as the reference.  It
# chains segments on coordinates rounded to 9 decimals, which is exact
# unless two crossings lie within about 1e-9 of each other.

def _interp(p0, p1, f0, f1, level):
    t = (level - f0) / (f1 - f0)
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def loop_segments(field, re_grid, im_grid, level):
    nr, ni = field.shape
    segments = []
    inside = (field <= level).tolist()
    field, re_grid, im_grid = field.tolist(), re_grid.tolist(), im_grid.tolist()
    for i in range(nr - 1):
        for j in range(ni - 1):
            c = (inside[i][j], inside[i + 1][j], inside[i + 1][j + 1],
                 inside[i][j + 1])
            if all(c) or not any(c):
                continue
            f00, f10 = field[i][j], field[i + 1][j]
            f11, f01 = field[i + 1][j + 1], field[i][j + 1]
            p00 = (re_grid[i], im_grid[j])
            p10 = (re_grid[i + 1], im_grid[j])
            p11 = (re_grid[i + 1], im_grid[j + 1])
            p01 = (re_grid[i], im_grid[j + 1])
            # edge crossings: bottom, right, top, left
            pts = {}
            if c[0] != c[1]:
                pts["b"] = _interp(p00, p10, f00, f10, level)
            if c[1] != c[2]:
                pts["r"] = _interp(p10, p11, f10, f11, level)
            if c[3] != c[2]:
                pts["t"] = _interp(p01, p11, f01, f11, level)
            if c[0] != c[3]:
                pts["l"] = _interp(p00, p01, f00, f01, level)
            keys = sorted(pts)
            if len(keys) == 2:
                segments.append((pts[keys[0]], pts[keys[1]]))
            elif len(keys) == 4:
                centre = 0.25 * (f00 + f10 + f11 + f01)
                if (centre <= level) == c[0]:
                    segments.append((pts["l"], pts["b"]))
                    segments.append((pts["t"], pts["r"]))
                else:
                    segments.append((pts["l"], pts["t"]))
                    segments.append((pts["b"], pts["r"]))
    return segments


def loop_chain(segments):
    def key(p):
        return (round(p[0], 9), round(p[1], 9))

    adjacency: dict = {}
    for a, b in segments:
        adjacency.setdefault(key(a), []).append((a, b))
        adjacency.setdefault(key(b), []).append((b, a))
    used = set()
    polylines = []
    for a, b in segments:
        if (key(a), key(b)) in used or (key(b), key(a)) in used:
            continue
        line = [a, b]
        used.add((key(a), key(b)))
        for at_head in (False, True):          # grow the tail, then the head
            grew = True
            while grew:
                grew = False
                tip = key(line[0] if at_head else line[-1])
                for start, end in adjacency.get(tip, []):
                    pair = (key(start), key(end))
                    if pair in used or (pair[1], pair[0]) in used:
                        continue
                    if at_head:
                        line.insert(0, end)
                    else:
                        line.append(end)
                    used.add(pair)
                    grew = True
                    break
        polylines.append(line)
    polylines.sort(key=lambda ln: (ln[0][0], ln[0][1]))
    return polylines


def loop_marching_squares(field, re_grid, im_grid, level):
    return loop_chain(loop_segments(field, re_grid, im_grid, level))


def drawn_segments(polylines):
    """The segments of polylines, as a multiset of sorted point pairs."""
    return Counter(tuple(sorted(pair)) for line in polylines
                   for pair in zip(line, line[1:]))


@st.composite
def crossing_fields(draw):
    """A field on a non-uniform grid whose values lie 0.01 to 10 from the
    level, so every crossing lies 2.5e-5 or more of a cell from its nodes
    and the reference's rounded keys are exact."""
    nr, ni = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    level = draw(st.floats(-2.0, 2.0))
    size = arrays(np.float64, (nr, ni), elements=st.floats(0.01, 10.0))
    above = draw(arrays(np.bool_, (nr, ni)))
    field = np.where(above, level + draw(size), level - draw(size))
    gaps = st.floats(0.05, 3.0)
    re_grid = draw(st.floats(-10.0, 10.0)) + np.cumsum(
        draw(arrays(np.float64, nr, elements=gaps)))
    im_grid = draw(st.floats(-10.0, 10.0)) + np.cumsum(
        draw(arrays(np.float64, ni, elements=gaps)))
    return field, re_grid, im_grid, level


# saddles: corners (0, 0) and (1, 1) inside with the centre in, then out;
# corners (1, 0) and (0, 1) inside with the centre out, then in
SADDLES = [np.array([[-1.0, 1.0], [1.0, -3.0]]),
           np.array([[-1.0, 3.0], [3.0, -1.0]]),
           np.array([[1.0, -1.0], [-1.0, 3.0]]),
           np.array([[1.0, -3.0], [-3.0, 1.0]])]
# a field all inside and one all outside the level 0
FLAT = [np.full((3, 4), -1.0), np.full((3, 4), 1.0)]


@settings(max_examples=300, deadline=None)
@given(crossing_fields())
@example((SADDLES[0], np.array([0.0, 1.0]), np.array([0.0, 2.0]), 0.0))
@example((SADDLES[1], np.array([0.0, 1.0]), np.array([0.0, 2.0]), 0.0))
@example((SADDLES[2], np.array([0.0, 1.0]), np.array([0.0, 2.0]), 0.0))
@example((SADDLES[3], np.array([0.0, 1.0]), np.array([0.0, 2.0]), 0.0))
@example((FLAT[0], np.arange(3.0), np.arange(4.0), 0.0))
@example((FLAT[1], np.arange(3.0), np.arange(4.0), 0.0))
def test_marching_squares_matches_loop(case):
    field, re_grid, im_grid, level = case
    assert repr(en.marching_squares(field, re_grid, im_grid, level)) \
        == repr(loop_marching_squares(field, re_grid, im_grid, level))


# the centre joins the left crossing to the bottom one when it lies on the
# side of corner (0, 0), else to the top one
JOIN_BOTTOM = [[(0.0, 1.0), (0.5, 0.0)], [(0.25, 2.0), (1.0, 0.5)]]
JOIN_TOP = [[(0.0, 0.5), (0.75, 2.0)], [(0.25, 0.0), (1.0, 1.5)]]


@pytest.mark.parametrize("field, lines", zip(
    SADDLES, [JOIN_BOTTOM, JOIN_TOP, JOIN_BOTTOM, JOIN_TOP]))
def test_saddle_split_by_centre(field, lines):
    assert en.marching_squares(field, np.array([0.0, 1.0]),
                               np.array([0.0, 2.0]), 0.0) == lines


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(2, 5), st.integers(2, 5)),
              elements=st.sampled_from([0.0, 1.0, 2.0])))
@example(np.array([[2.0, 1.0], [1.0, 2.0]]))
def test_grid_values_on_the_level_keep_every_segment(field):
    # crossings on grid nodes chain on the node; every emitted segment of
    # positive length lies in exactly one polyline (on integer grids all
    # crossings are exact)
    re_grid = np.arange(field.shape[0], dtype=float)
    im_grid = np.arange(field.shape[1], dtype=float)
    emitted = Counter(tuple(sorted(s))
                      for s in loop_segments(field, re_grid, im_grid, 1.0)
                      if s[0] != s[1])
    lines = en.marching_squares(field, re_grid, im_grid, 1.0)
    assert drawn_segments(lines) == emitted


def test_rounded_keys_lost_a_saddle_segment():
    # a saddle whose four crossings sit on the two inside nodes emits the
    # diagonal twice; the rounded-key chaining kept it once
    field = np.array([[2.0, 1.0], [1.0, 2.0]])
    grid = np.array([0.0, 1.0])
    assert loop_marching_squares(field, grid, grid, 1.0) \
        == [[(0.0, 1.0), (1.0, 0.0)]]
    assert en.marching_squares(field, grid, grid, 1.0) \
        == [[(0.0, 1.0), (1.0, 0.0), (0.0, 1.0)]]


def test_level_through_grid_nodes_is_one_polyline():
    # the circle of radius 0.75 about (1, 0) passes exactly through grid
    # nodes such as (1.75, 0); the cells around such a node emit segments
    # from the node to itself, which must not come out as lines of their own
    re_grid = np.linspace(0.0, 2.0, 41)
    im_grid = np.linspace(-1.3, 1.3, 53)
    field = np.hypot(re_grid[:, None] - 1.0, im_grid[None, :])
    assert (field == 0.75).any()
    (line,) = en.marching_squares(field, re_grid, im_grid, 0.75)
    assert line[0] == line[-1]
    assert len(set(line)) == len(line) - 1


@pytest.mark.parametrize("centre", [1.0, 2.0])
def test_circle_is_one_polyline(centre):
    # the level set of the distance to (centre, 0): a whole circle must close
    # on itself, and an arc clipped by the grid's right edge, whose first
    # segment in raster order lies mid-arc, must still come out as one line
    re_grid = np.linspace(0.0, 2.0, 41)
    im_grid = np.linspace(-1.3, 1.3, 53)
    radius = 0.7071
    field = np.hypot(re_grid[:, None] - centre, im_grid[None, :])
    (line,) = en.marching_squares(field, re_grid, im_grid, radius)
    pts = np.array(line)
    assert np.abs(np.hypot(pts[:, 0] - centre, pts[:, 1]) - radius).max() < 2e-3
    if centre == 1.0:
        assert line[0] == line[-1]
    else:
        ends = sorted([line[0], line[-1]])
        assert ends == pytest.approx([(2.0, -radius), (2.0, radius)], abs=1e-12)


POINT_MASS = {"version": 1, "domain": {"kind": "disk"},
              "measure": {"variant": "dirac", "x0": 0.034052165372859565,
                          "y0": -0.010954638066593792},
              "cutoff": 2000.0, "tasks": ["figure1"]}
FIGURE_CONFIGS = {
    "point_mass": POINT_MASS,
    # the figure1 subcommand's uniform measure on a pi x 1.2337 pi rectangle
    "rectangle": dict(POINT_MASS, measure={"variant": "uniform"},
                      domain={"kind": "rectangle", "side_x": math.pi,
                              "side_y": 3.8757828567337283}),
}
# SHA-256 of the figure-1 files, each level curve one polyline
PINNED_FIGURES = {
    "rectangle": {
        "enclosure_curves.csv":
            "c4e8a5ce7a5db3995673be781d46f7651bb01410417778b4688edec4faf63955",
        "enclosure.svg":
            "b34d48b125c67a9457ef821c3704fef3029cc5d0215d1721651198ffc803e8a3",
    },
    "point_mass": {
        "enclosure_curves.csv":
            "d38c54924b7c7f8c69964e5fe729dfe4967624f2def433195a3c195a6cc3d65c",
        "enclosure.svg":
            "3163e1f4967ad835a76584d697bbf74ad63f693212f7d5a0cb242bca589eb597",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_FIGURES))
def test_figure1_pinned_digests(tmp_path, name):
    out = tmp_path / "out"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(FIGURE_CONFIGS[name]))
    assert cli.main(["run", str(config), "--out", str(out)]) == cli.EXIT_PASS
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in PINNED_FIGURES[name]} == PINNED_FIGURES[name]
