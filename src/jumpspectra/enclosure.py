"""Spectral-enclosure certificates and exclusion-region geometry.

Three families of certificates are checked against assembled spectra:

* half-plane exclusion: under an admissible perturbation of the uniform
  measure at level k, no nonreal spectrum has real part below the midpoint
  of the k-th spectral gap;
* interlacing: under the same hypothesis, each gap between consecutive
  active poles of the secular series up to level k holds exactly one real
  eigenvalue;
* nested ("matryoshka") enclosure: under an admissible perturbation of the
  ground-state measure, all nonreal spectrum stays inside a neighbourhood of
  the Dirichlet spectrum whose size is set by the perturbation norm.

Every checker returns one of pass / fail / inapplicable: a failed hypothesis
gate yields "inapplicable", never "fail", so a "fail" is always a genuine
counterexample to the corresponding enclosure statement.

Level counting runs over the active (non-inert) poles of the secular
series: on symmetric domains whole families of modes have identically zero
mean coefficient and drop out of the series, carrying no obstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BasisSet
from .measures import AdmissibilityCertificate
from .secular import SecularSeries, real_roots_in
from .spectrum import SpectrumReport

PASS, FAIL, INAPPLICABLE = "pass", "fail", "inapplicable"
_FIGURE_RE, _FIGURE_IM = (0.0, 60.0), (-15.0, 15.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    verdict: str
    detail: str
    offenders: tuple = ()
    margin: float | None = None
    intervals: tuple = ()   # interlacing: ((lo, hi), count, root or None)


# ---------------------------------------------------------------------------
# region geometry
# ---------------------------------------------------------------------------

def halfplane_threshold(basis: BasisSet, k: int) -> float:
    """Midpoint of the k-th gap of the raw Dirichlet enumeration."""
    if k >= len(basis):
        raise ValueError("k exceeds the number of retained eigenvalues")
    return 0.5 * (basis.eigenvalues[k - 1] + basis.eigenvalues[k])


def in_halfplane(lam: complex, threshold: float) -> bool:
    return lam.imag != 0.0 and lam.real <= threshold


def _ray_distance(re, im, cutoff):
    # distance to the half-line [cutoff, inf) on the real axis
    return np.where(re >= cutoff, np.abs(im), np.hypot(cutoff - re, im))


def spectral_distance(lam, basis: BasisSet):
    """Distance to the Dirichlet spectrum, tail modes handled analytically.

    Eigenvalues above the cutoff lie on ``[cutoff, inf)``, so the distance
    to that ray is a valid lower bound for their contribution.
    """
    lam = np.asarray(lam, dtype=complex)
    # the spectrum is real and build_basis sorts ``basis.eigenvalues``
    # ascending, so the nearest eigenvalue is one of the two around Re lam
    e = basis.eigenvalues
    i = np.clip(np.searchsorted(e, lam.real), 1, e.size - 1)
    d = np.minimum(np.abs(lam - e[i - 1]), np.abs(lam - e[i]))
    return np.minimum(d, _ray_distance(lam.real, lam.imag, basis.cutoff))


def matryoshka_ratio(lam, basis: BasisSet):
    """dist(lam, Dirichlet spectrum) / |lambda_1 - lam| (enclosure field)."""
    lam = np.asarray(lam, dtype=complex)
    lam1 = basis.eigenvalues[0]
    return spectral_distance(lam, basis) / np.abs(lam1 - lam)


# ---------------------------------------------------------------------------
# theorem checkers
# ---------------------------------------------------------------------------

_BASES = {"uniform": "uniform-base", "ground_state": "ground-state"}


def _gate(name: str, cert: AdmissibilityCertificate,
          base_kind: str) -> CheckResult | None:
    """The inapplicable result ``name`` when ``cert`` does not certify an
    admissible perturbation of the ``base_kind`` measure, else None."""
    if cert.base_kind != base_kind:
        return CheckResult(name, INAPPLICABLE, f"hypothesis concerns "
                           f"{_BASES[base_kind]} perturbations")
    if not cert.passed:
        return CheckResult(name, INAPPLICABLE,
                           f"admissibility failed: {cert.summary()}")
    return None


def check_halfplane_exclusion(report: SpectrumReport,
                              cert: AdmissibilityCertificate,
                              k: int, basis: BasisSet) -> CheckResult:
    """No nonreal certified entry in the level-k half-plane region."""
    name = f"halfplane_exclusion[k={k}]"
    if gate := _gate(name, cert, "uniform"):
        return gate
    threshold = halfplane_threshold(basis, k)
    offenders = tuple(e for e in report.entries
                      if e.certified and in_halfplane(e.value, threshold))
    if offenders:
        worst = min(threshold - e.value.real for e in offenders)
        return CheckResult(name, FAIL,
                           f"{len(offenders)} nonreal entries below Re = "
                           f"{threshold:.6g}", offenders, worst)
    return CheckResult(name, PASS,
                       f"no nonreal spectrum with Re <= {threshold:.6g}",
                       margin=threshold)


def check_interlacing(series: SecularSeries,
                      cert: AdmissibilityCertificate,
                      k: int) -> CheckResult:
    """Exactly one real eigenvalue per gap between active poles up to k;
    inapplicable at k = 1, where there is no such gap to check."""
    name = f"interlacing[k={k}]"
    if gate := _gate(name, cert, "uniform"):
        return gate
    if k < 2:
        return CheckResult(name, INAPPLICABLE,
                           "no gap lies below the first active pole")
    if len(series.poles) < k:
        return CheckResult(name, INAPPLICABLE, f"fewer than {k} active poles")
    # each of the first k active poles must be a simple Dirichlet eigenvalue
    sizes = series.basis.cluster_sizes[series.live]
    degenerate = np.flatnonzero(sizes[:k] > 1)
    if degenerate.size:
        i = int(degenerate[0])
        return CheckResult(name, INAPPLICABLE, f"active pole {i + 1} at "
                           f"{series.poles[i]:.6g} is degenerate")
    intervals = []
    for i in range(k - 1):
        lo, hi = series.poles[i], series.poles[i + 1]
        roots = real_roots_in(series, lo + 1e-9 * (1 + lo), hi - 1e-9 * (1 + hi))
        intervals.append(((float(lo), float(hi)), len(roots),
                          roots[0].value if len(roots) == 1 else None))
    single = all(count == 1 for _, count, _ in intervals)
    return CheckResult(name, PASS if single else FAIL,
                       "one eigenvalue per gap" if single
                       else "gap with count != 1", intervals=tuple(intervals))


def bound_first_eigenvalue(series: SecularSeries,
                           cert: AdmissibilityCertificate) -> CheckResult:
    """Bracket and two-pole bound for the real eigenvalue in the first
    active gap, between the first two non-inert poles of the series.

    That root need not be the smallest nonzero real eigenvalue: inert
    Dirichlet values (symmetry-killed poles) below it are not ruled out,
    and the detail only notes those inside the bracket.  Requires the
    level-2 hypothesis: a certificate at level k >= 2 implies it, since the
    smallness threshold only falls as k grows.  Returns the located
    eigenvalue together with the slack of the two-pole remainder bound
    evaluated at it.
    """
    name = "first_eigenvalue_bound"
    if cert.k < 2:
        return CheckResult(name, INAPPLICABLE, f"needs the level-2 "
                           f"hypothesis; the certificate is at level {cert.k}")
    inter = check_interlacing(series, cert, 2)
    if inter.verdict == INAPPLICABLE:
        return CheckResult(name, INAPPLICABLE, inter.detail)
    if inter.verdict == FAIL:
        return CheckResult(name, FAIL, "interlacing failed in the first gap")
    (lo, hi), _, root = inter.intervals[0]     # one root: interlacing passed
    if len(series.poles) < 3:
        return CheckResult(name, INAPPLICABLE,
                           "need three active poles for the remainder bound")
    a1, a2 = series.residues[0], series.residues[1]
    p1, p2, p3 = series.poles[0], series.poles[1], series.poles[2]
    lhs = abs(a1 / (p1 - root) + a2 / (p2 - root))
    rhs = (math.sqrt(series.basis.domain.area)
           * series.moments.l2_density_norm / (p3 - p2))
    slack = rhs - lhs
    detail = (f"eigenvalue {root:.9g} in ({lo:.6g}, {hi:.6g}); two-pole bound "
              f"{lhs:.4e} <= {rhs:.4e}")
    inert = series.basis.cluster_means[~series.live]
    if below := np.count_nonzero((lo < inert) & (inert < root)):
        detail += (f"; note {below} inert Dirichlet values in the bracket "
                   f"below it")
    return CheckResult(name, PASS if slack >= 0 else FAIL, detail,
                       margin=slack)


def check_nested_enclosure(report: SpectrumReport,
                           cert: AdmissibilityCertificate,
                           basis: BasisSet) -> CheckResult:
    """All nonreal certified entries inside the nested enclosure set."""
    name = "nested_enclosure"
    if gate := _gate(name, cert, "ground_state"):
        return gate
    t = basis.domain.area ** 0.25 * math.sqrt(cert.v_norm)
    h1 = halfplane_threshold(basis, 1)
    offenders = []
    worst = math.inf
    for e in report.nonreal_entries():
        if not e.certified:
            continue
        ratio = float(matryoshka_ratio(np.array([e.value]), basis)[0])
        if ratio > t or in_halfplane(e.value, h1):
            offenders.append(e)
        worst = min(worst, t - ratio)
    if offenders:
        return CheckResult(name, FAIL,
                           f"{len(offenders)} nonreal entries escape the "
                           f"enclosure at t = {t:.4g}", tuple(offenders))
    detail = f"all nonreal entries inside the t = {t:.4g} enclosure"
    return CheckResult(name, PASS, detail,
                       margin=None if worst is math.inf else worst)


# ---------------------------------------------------------------------------
# enclosure boundary curves (marching squares)
# ---------------------------------------------------------------------------

def ratio_field(basis: BasisSet, re_grid: np.ndarray, im_grid: np.ndarray):
    """Enclosure field on a grid, shape (len(re_grid), len(im_grid))."""
    return matryoshka_ratio(re_grid[:, None] + 1j * im_grid, basis)


# Cell (i, j) has corners (i, j), (i+1, j), (i+1, j+1), (i, j+1), bits 1, 2,
# 4, 8 of its case, and edges coded 0-3 in the order b, l, r, t in which a
# segment names its ends: bottom (i, j)-(i+1, j), left (i, j)-(i, j+1),
# right (i+1, j)-(i+1, j+1) and top (i, j+1)-(i+1, j+1).  Per code: the
# offset of the edge's first node from (i, j), and whether the edge runs
# along the imaginary axis.
_EDGE_DI = np.array([0, 0, 1, 0])
_EDGE_DJ = np.array([0, 0, 0, 1])
_EDGE_UP = np.array([0, 1, 1, 0])


def _segment_table():
    """The segments of each case as pairs of edge codes, indexed by
    2 * case + same, where ``same`` says that the cell centre lies on the
    side of corner (i, j); only the saddle cases 5 and 10 depend on it."""
    b, l, r, t = range(4)
    table = np.zeros((32, 2, 2), dtype=np.intp)
    count = np.zeros(32, dtype=np.intp)
    for case in range(16):
        c0, c1, c2, c3 = ((case >> k) & 1 for k in range(4))
        edges = [e for e, crossed in ((b, c0 != c1), (l, c0 != c3),
                                      (r, c1 != c2), (t, c3 != c2)) if crossed]
        for same in (0, 1):
            if len(edges) == 4:
                segments = [(l, b), (t, r)] if same else [(l, t), (b, r)]
            else:
                segments = [edges] if edges else []
            row = 2 * case + same
            count[row] = len(segments)
            if segments:
                table[row, :len(segments)] = segments
    return table, count


_SEGMENTS, _SEGMENT_COUNT = _segment_table()


def marching_squares(field: np.ndarray, re_grid: np.ndarray,
                     im_grid: np.ndarray, level: float):
    """Level-set polylines of ``field`` (indexed [i_re, i_im]) at ``level``.

    Plain 16-case marching squares with linear interpolation (Lorensen &
    Cline 1987), over all cells at once; the two ambiguous saddle cases are
    split by the cell-centre value.  Segments come in raster order of their
    cells.  Each crossing is interpolated once per grid edge, and segments
    chain on the ids of their edges, or of the grid node a crossing hits
    exactly; a segment from such a node to itself is dropped.  Output is
    deterministic.
    """
    ni = field.shape[1]
    inside = field <= level
    c = inside.view(np.uint8)
    case = c[:-1, :-1] | c[1:, :-1] << 1 | c[1:, 1:] << 2 | c[:-1, 1:] << 3
    ci, cj = np.nonzero((case != 0) & (case != 15))
    if ci.size == 0:
        return []
    centre = 0.25 * (field[ci, cj] + field[ci + 1, cj] + field[ci + 1, cj + 1]
                     + field[ci, cj + 1])
    row = 2 * case[ci, cj] + ((centre <= level) == inside[ci, cj])
    n_seg = _SEGMENT_COUNT[row]
    edge = _SEGMENTS[row][np.arange(2) < n_seg[:, None]].ravel()
    i0 = np.repeat(ci, 2 * n_seg) + _EDGE_DI[edge]
    j0 = np.repeat(cj, 2 * n_seg) + _EDGE_DJ[edge]
    # ids: 3n for grid node n, 3n + 1 and 3n + 2 for the edges from node n
    # along the real and the imaginary axis
    edge_ids, which = np.unique(3 * (i0 * ni + j0) + 1 + _EDGE_UP[edge],
                                return_inverse=True)
    node0, up = np.divmod(edge_ids - 1, 3)
    i0, j0 = np.divmod(node0, ni)
    i1, j1 = i0 + 1 - up, j0 + up
    f0 = field[i0, j0]
    t = (level - f0) / (field[i1, j1] - f0)
    x = re_grid[i0] + t * (re_grid[i1] - re_grid[i0])
    y = im_grid[j0] + t * (im_grid[j1] - im_grid[j0])
    # a crossing on a grid node takes the node's id, which all its edges share
    ids = np.where(t == 0, 3 * node0, np.where(t == 1, 3 * (i1 * ni + j1),
                                                edge_ids))
    # a cell whose crossings all fall on one node emits a segment from that
    # node to itself, which has no length
    ends = ids[which].reshape(-1, 2)
    long = ends[:, 0] != ends[:, 1]
    if not long.any():
        return []
    which = which.reshape(-1, 2)[long].ravel()
    points = list(zip(x[which].tolist(), y[which].tolist()))
    return _chain_segments(np.unique(ends[long], return_inverse=True)[1]
                           .ravel(), points)


def _chain_segments(node, points):
    """Polylines through the segments (``points[2s]``, ``points[2s + 1]``),
    whose ends lie on the nodes ``node[2s]``, ``node[2s + 1]`` (0 .. k-1).

    Each segment not yet used starts a line, which grows from its tail and
    then from its head, each time by the first unused segment at the end
    node, in segment order; lines are sorted by their first point.  So a
    curve comes out whole whichever of its segments starts it.
    """
    order = np.argsort(node, kind="stable")
    first = np.searchsorted(node[order], np.arange(node.max() + 2)).tolist()
    order, node = order.tolist(), node.tolist()
    used = [False] * (len(node) // 2)

    def grow(at):
        """Points of the unused segments chained on from node ``at``."""
        out = []
        while True:
            for end in order[first[at]:first[at + 1]]:
                if not used[end >> 1]:
                    break
            else:
                return out
            used[end >> 1] = True
            out.append(points[end ^ 1])
            at = node[end ^ 1]

    polylines = []
    for s in range(len(used)):
        if used[s]:
            continue
        used[s] = True
        tail = grow(node[2 * s + 1])
        head = grow(node[2 * s])
        polylines.append(head[::-1] + [points[2 * s], points[2 * s + 1]] + tail)
    polylines.sort(key=lambda ln: ln[0])
    return polylines


@dataclass(frozen=True)
class EnclosureCurves:
    thresholds: tuple[float, ...]
    curves: dict                 # threshold -> list of polylines
    re_grid: np.ndarray = field(repr=False, default=None)
    im_grid: np.ndarray = field(repr=False, default=None)
    field_values: np.ndarray = field(repr=False, default=None)

    def to_csv(self) -> str:
        import io
        lines = io.StringIO()
        lines.write("threshold,curve_id,re,im\n")
        for t in self.thresholds:
            for cid, poly in enumerate(self.curves[t]):
                for (re, im) in poly:
                    lines.write(f"{t},{cid},{re!r},{im!r}\n")
        return lines.getvalue()


def emit_matryoshka_curves(basis: BasisSet,
                           thresholds=(0.1, 0.2, 0.3, 0.4),
                           resolution=(600, 300)) -> EnclosureCurves:
    """Boundary curves of the nested enclosure for a list of thresholds,
    over the window ``_FIGURE_RE`` x ``_FIGURE_IM`` of the paper's figure 1."""
    re_grid = np.linspace(*_FIGURE_RE, resolution[0])
    im_grid = np.linspace(*_FIGURE_IM, resolution[1])
    F = ratio_field(basis, re_grid, im_grid)
    curves = {}
    for t in thresholds:
        if t <= 0.0:
            # the level set degenerates to the Dirichlet points themselves
            curves[t] = [[(float(l), 0.0), (float(l), 0.0)]
                         for l in basis.eigenvalues
                         if _FIGURE_RE[0] <= l <= _FIGURE_RE[1]]
            continue
        curves[t] = marching_squares(F, re_grid, im_grid, t)
    return EnclosureCurves(tuple(thresholds), curves, re_grid, im_grid, F)
