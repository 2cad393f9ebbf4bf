"""Monte Carlo validation of the stationary occupation profile.

The process is an Euler discretisation of a Brownian motion (generator
normalised so increments have variance ``2 dt`` per axis) killed on a thin
boundary band and instantly restarted from the measure.  The long-run
occupation histogram is compared in L1 against the spectral prediction: the
normalised Dirichlet solve of the measure, which spans the kernel
of the adjoint generator.

The boundary band ``0.5826 sqrt(2 dt)`` offsets the mean overshoot
of discrete exits past the boundary (the standard half-order correction for
killed diffusions); exit positions are tested every step, with occupation
weights accumulated at the midpoint of every step, the exit step included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BasisSet, Domain
from ._kernels import derive_seeds, run_walk
from .measures import MeasureSpec
from .resolvent import adjoint_kernel_vector

_OVERSHOOT = 0.5826          # mean discrete-exit overshoot, units of sqrt(2 dt)


@dataclass(frozen=True)
class WalkConfig:
    step_dt: float = 1e-5
    n_steps: int = 100_000
    n_paths: int = 1_000
    seed: int = 20240817
    n_bins: int = 24

    def band(self) -> float:
        return _OVERSHOOT * math.sqrt(2.0 * self.step_dt)


@dataclass(frozen=True)
class OccupationHistogram:
    domain: Domain
    config: WalkConfig
    counts: np.ndarray
    normalized_density: np.ndarray         # per unit area; integrates to 1
    bin_areas: np.ndarray
    n_restarts: int
    used_numba: bool                       # always False: one numpy engine
    rejection_attempts: int = 0
    rejection_accepts: int = 0


def simulate_occupation(config: WalkConfig, spec: MeasureSpec,
                        basis: BasisSet) -> OccupationHistogram:
    """Run the walk ensemble on ``basis.domain`` and bin the time-weighted
    occupation."""
    domain = basis.domain
    band = config.band()
    spec.check_band(domain, band)
    hist, _, stats = run_walk(
        derive_seeds(config.seed, config.n_paths), config.n_steps,
        config.step_dt, band, domain, spec.restart(basis), config.n_bins)
    areas = domain.cell_areas(config.n_bins)
    density = hist / float(np.sum(hist)) / areas
    return OccupationHistogram(domain, config, hist, density, areas,
                               int(stats[0]), False, int(stats[1]),
                               int(stats[2]))


# ---------------------------------------------------------------------------
# spectral prediction and comparison
# ---------------------------------------------------------------------------

def stationary_prediction(series, hist: OccupationHistogram) -> np.ndarray:
    """Bin-averaged stationary density from the adjoint kernel direction.

    The prediction is the Dirichlet solve of the measure
    (``adjoint_kernel_vector``), normalised to unit mass and integrated
    exactly over each cell.
    """
    basis = series.basis
    w_over_lam = adjoint_kernel_vector(series).coeffs
    norm = float(np.sum(w_over_lam * basis.one_coeffs))
    masses = hist.domain.cell_masses(basis, w_over_lam, hist.config.n_bins)
    return masses / norm / hist.bin_areas


def compare_stationary(hist: OccupationHistogram,
                       predicted_density: np.ndarray) -> float:
    """L1 distance between empirical and predicted bin densities."""
    return float(np.sum(np.abs(hist.normalized_density - predicted_density)
                        * hist.bin_areas))


def histogram_to_csv(hist: OccupationHistogram,
                     predicted_density: np.ndarray) -> str:
    lines = ["bin_lo,bin_hi,density_empirical,density_predicted"]
    cells = hist.domain.cell_labels(hist.config.n_bins)
    for cell, empirical, predicted in zip(
            cells, hist.normalized_density.tolist(), predicted_density.tolist()):
        lines.append(f"{cell},{empirical!r},{predicted!r}")
    return "\n".join(lines) + "\n"

