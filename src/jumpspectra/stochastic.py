"""Monte Carlo validation of the stationary occupation profile.

The process is an Euler discretisation of a Brownian motion (generator
normalised so increments have variance ``2 dt`` per axis) killed on a thin
boundary band and instantly restarted from the measure.  The long-run
occupation histogram is compared in L1 against the spectral prediction: the
normalised Dirichlet solve of the measure density, which spans the kernel
of the adjoint generator.

The boundary band default ``0.5826 sqrt(2 dt)`` offsets the mean overshoot
of discrete exits past the boundary (the standard half-order correction for
killed diffusions); exit positions are tested every step, with occupation
weights accumulated at step midpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .errors import RejectionEfficiencyError, UnsupportedMeasureError
from .geometry import BasisSet, DomainSpec, bessel_zero
from ._kernels import derive_seeds, run_walk
from .measures import (CircleMeasure, DiracMeasure, GroundStateMeasure,
                       MeasureSpec, UniformMeasure, density_function)

_OVERSHOOT = 0.5826          # mean discrete-exit overshoot, units of sqrt(2 dt)


@dataclass(frozen=True)
class WalkConfig:
    step_dt: float = 1e-5
    n_steps: int = 100_000
    n_paths: int = 1_000
    seed: int = 20240817
    boundary_tolerance: float | None = None     # default: overshoot correction
    n_bins: int = 24
    restart_sample_cap: int = 32_768

    def band(self) -> float:
        if self.boundary_tolerance is not None:
            return self.boundary_tolerance
        return _OVERSHOOT * math.sqrt(2.0 * self.step_dt)


@dataclass(frozen=True)
class OccupationHistogram:
    domain: DomainSpec
    config: WalkConfig
    bin_edges: np.ndarray                  # radial edges (disk) or x-edges
    bin_edges_y: np.ndarray | None         # y-edges for the rectangle
    counts: np.ndarray
    normalized_density: np.ndarray         # per unit area; integrates to 1
    bin_areas: np.ndarray
    restart_samples: np.ndarray            # (m, 2) restart positions
    n_restarts: int
    used_numba: bool                       # always False: one numpy engine
    rejection_attempts: int = 0
    rejection_accepts: int = 0

    def mass_check(self) -> float:
        return float(np.sum(self.normalized_density * self.bin_areas))


def _restart_setup(spec: MeasureSpec, domain: DomainSpec,
                   basis: BasisSet | None):
    """Kernel code and tables for sampling the restart measure."""
    radial = np.zeros(2)
    grid = np.zeros((2, 2))
    if isinstance(spec, UniformMeasure):
        if domain.kind == "disk":
            return 0, 0.0, 0.0, radial, grid
        return 4, 0.0, 0.0, radial, grid
    if isinstance(spec, GroundStateMeasure) and domain.kind == "disk":
        j1 = bessel_zero(0, 1)
        r = np.linspace(0.0, 1.0, 4097)
        radial = np.clip(jv(0, j1 * r), 0.0, None)   # acceptance ratio, max 1 at 0
        return 1, 0.0, 0.0, radial, grid
    if isinstance(spec, DiracMeasure):
        return 2, spec.x0, spec.y0, radial, grid
    if isinstance(spec, CircleMeasure):
        if domain.kind != "disk":
            raise UnsupportedMeasureError("circle restarts need the disk")
        return 3, spec.r0, 0.0, radial, grid
    # general density: grid-table rejection over the bounding box
    if basis is None:
        raise ValueError("density restarts need a basis for evaluation")
    w = density_function(spec, basis)
    if w is None:
        raise UnsupportedMeasureError(f"cannot sample restarts from {spec!r}")
    n = 257
    if domain.kind == "disk":
        gx = np.linspace(-1.0, 1.0, n)
        gy = np.linspace(-1.0, 1.0, n)
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        vals = np.where(X ** 2 + Y ** 2 < 1.0, w(X, Y), 0.0)
    else:
        gx = np.linspace(0.0, domain.side_x, n)
        gy = np.linspace(0.0, domain.side_y, n)
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        vals = w(X, Y)
    vmax = float(np.max(vals))
    if vmax <= 0:
        raise UnsupportedMeasureError("density table is identically zero")
    return 5, 0.0, 0.0, radial, np.clip(vals / vmax, 0.0, 1.0)


def _domain_codes(domain: DomainSpec):
    """Kernel domain code and rectangle sides."""
    if domain.kind == "disk":
        return 0, 0.0, 0.0
    return 1, domain.side_x, domain.side_y


def simulate_occupation(config: WalkConfig, domain: DomainSpec,
                        spec: MeasureSpec,
                        basis: BasisSet | None = None) -> OccupationHistogram:
    """Run the walk ensemble and bin the time-weighted occupation."""
    band = config.band()
    if isinstance(spec, DiracMeasure) and \
            domain.boundary_distance(spec.x0, spec.y0) <= band:
        raise ValueError("restart point sits inside the boundary band")
    if isinstance(spec, CircleMeasure) and spec.r0 >= 1.0 - band:
        raise ValueError("restart circle sits inside the boundary band")

    code, r0, r1, radial, grid = _restart_setup(spec, domain, basis)
    seeds = derive_seeds(config.seed, config.n_paths)
    domain_code, d0, d1 = _domain_codes(domain)
    hist_ny = 1 if domain_code == 0 else config.n_bins
    hist, restart_buf, stats = run_walk(
        seeds, config.n_steps, config.step_dt, band, domain_code, d0, d1,
        code, r0, r1, radial, grid, config.n_bins, hist_ny,
        config.restart_sample_cap)

    if stats[1] > 0 and stats[2] < 0.01 * stats[1]:
        raise RejectionEfficiencyError(
            f"rejection acceptance {stats[2]}/{stats[1]} fell below 1%")

    total = float(np.sum(hist))
    if domain.kind == "disk":
        edges = np.linspace(0.0, 1.0, config.n_bins + 1)
        areas = math.pi * (edges[1:] ** 2 - edges[:-1] ** 2)
        density = hist / total / areas
        edges_y = None
    else:
        edges = np.linspace(0.0, domain.side_x, config.n_bins + 1)
        edges_y = np.linspace(0.0, domain.side_y, config.n_bins + 1)
        dx = edges[1] - edges[0]
        dy = edges_y[1] - edges_y[0]
        areas = np.full(hist.size, dx * dy)
        density = hist / total / areas
    n_rec = int(min(stats[0], config.restart_sample_cap))
    return OccupationHistogram(domain, config, edges, edges_y, hist, density,
                               areas, restart_buf[:n_rec].copy(), int(stats[0]),
                               False, int(stats[1]), int(stats[2]))


# ---------------------------------------------------------------------------
# spectral prediction and comparison
# ---------------------------------------------------------------------------

def stationary_prediction(series, hist: OccupationHistogram) -> np.ndarray:
    """Bin-averaged stationary density from the adjoint kernel direction.

    The prediction is the Dirichlet solve of the measure density (mode
    coefficients ``w_n / lambda_n``), normalised to unit mass.
    """
    basis = series.basis
    w_over_lam = series.moments.moments / basis.eigenvalues
    norm = float(np.sum(w_over_lam * basis.one_coeffs))
    if hist.domain.kind == "disk":
        # radial Gauss rule inside each annulus; angular modes average out
        from numpy.polynomial.legendre import leggauss
        t, wt = leggauss(16)
        edges = hist.bin_edges
        out = np.empty(edges.size - 1)
        radial = [(i, m) for i, m in enumerate(basis.modes) if m.label[0] == 0]
        for b in range(edges.size - 1):
            lo, hi = edges[b], edges[b + 1]
            r = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
            wr = 0.5 * (hi - lo) * wt
            vals = np.zeros_like(r)
            for i, m in radial:
                vals += w_over_lam[i] * m.evaluate(r, np.zeros_like(r))
            mass = 2.0 * math.pi * float(np.sum(wr * r * vals))
            out[b] = mass / norm / hist.bin_areas[b]
        return out
    # rectangle: tensor Gauss rule per cell
    from numpy.polynomial.legendre import leggauss
    t, wt = leggauss(6)
    ex, ey = hist.bin_edges, hist.bin_edges_y
    nb = ex.size - 1
    out = np.empty(nb * nb)
    for i in range(nb):
        xs = 0.5 * (ex[i] + ex[i + 1]) + 0.5 * (ex[i + 1] - ex[i]) * t
        wx = 0.5 * (ex[i + 1] - ex[i]) * wt
        for j in range(nb):
            ys = 0.5 * (ey[j] + ey[j + 1]) + 0.5 * (ey[j + 1] - ey[j]) * t
            wy = 0.5 * (ey[j + 1] - ey[j]) * wt
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            vals = np.zeros_like(X)
            live = np.nonzero(np.abs(w_over_lam) > 1e-13)[0]
            for k in live:
                vals += w_over_lam[k] * basis.modes[k].evaluate(X, Y)
            mass = float(np.sum(np.outer(wx, wy) * vals))
            out[i * nb + j] = mass / norm / hist.bin_areas[i * nb + j]
    return out


def compare_stationary(hist: OccupationHistogram,
                       predicted_density: np.ndarray) -> float:
    """L1 distance between empirical and predicted bin densities."""
    return float(np.sum(np.abs(hist.normalized_density - predicted_density)
                        * hist.bin_areas))


def histogram_to_csv(hist: OccupationHistogram,
                     predicted_density: np.ndarray | None = None) -> str:
    lines = ["bin_lo,bin_hi,density_empirical,density_predicted"]
    edges = hist.bin_edges
    pred = predicted_density if predicted_density is not None \
        else np.full(hist.counts.size, math.nan)
    if hist.domain.kind == "disk":
        for b in range(edges.size - 1):
            lines.append(f"{edges[b]!r},{edges[b + 1]!r},"
                         f"{hist.normalized_density[b]!r},{pred[b]!r}")
    else:
        nb = edges.size - 1
        ey = hist.bin_edges_y
        for i in range(nb):
            for j in range(ey.size - 1):
                k = i * nb + j
                lines.append(f"({edges[i]!r};{ey[j]!r}),({edges[i + 1]!r};"
                             f"{ey[j + 1]!r}),{hist.normalized_density[k]!r},"
                             f"{pred[k]!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# optional transient-decay diagnostic
# ---------------------------------------------------------------------------

def decay_rate_estimate(domain: DomainSpec, spec: MeasureSpec,
                        basis: BasisSet | None = None,
                        dt: float = 1e-4, n_steps: int = 2500,
                        n_paths: int = 60_000, seed: int = 5,
                        start=(0.0, 0.0), fit_start: float = 0.06) -> float:
    """Crude estimate of the slowest relaxation rate from a point start.

    Tracks the occupancy of the inner half-disk/rectangle-quadrant over time
    and fits the log-gap to its long-run level.  Statistical noise dominates
    quickly; treat the result as a +-25% diagnostic, not a certificate.
    """
    code, r0, r1, radial, grid = _restart_setup(spec, domain, basis)
    domain_code, d0, d1 = _domain_codes(domain)
    if domain_code == 0:
        def observable(px, py):
            return px * px + py * py < 0.25
    else:
        def observable(px, py):
            return (px < d0 / 2) & (py < d1 / 2)
    parts = []

    def record(px, py):
        parts.append(np.mean(observable(px, py), axis=1))

    run_walk(derive_seeds(seed, n_paths), n_steps, dt,
             _OVERSHOOT * math.sqrt(2.0 * dt), domain_code, d0, d1,
             code, r0, r1, radial, grid, 0, 0, 0,
             start=(np.full(n_paths, float(start[0])),
                    np.full(n_paths, float(start[1]))),
             on_block=record)
    series = np.concatenate(parts)
    t = dt * np.arange(1, n_steps + 1)
    tail = series[int(0.7 * n_steps):].mean()
    gap = series - tail
    # fit where the transient is resolvable above noise, past fit_start so
    # the faster radial modes have died out
    noise = 3.0 / math.sqrt(n_paths)
    sel = np.nonzero((gap > noise) & (t >= fit_start))[0]
    if sel.size < 10:
        raise RuntimeError("transient too short to fit a decay rate")
    A = np.vstack([t[sel], np.ones(sel.size)]).T
    slope, _ = np.linalg.lstsq(A, np.log(gap[sel]), rcond=None)[0]
    return float(-slope)
