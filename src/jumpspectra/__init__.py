"""Spectral certificates for planar diffusion generators with measure-coupled
boundary restarts: closed-form Dirichlet bases, secular-series root finding,
resolvent algebra, enclosure certificates and Monte Carlo cross-validation."""

from .bessel import bessel_zero
from .geometry import (BasisSet, Disk, Rectangle, build_basis, rectangle,
                       unit_disk)
from .measures import (AdmissibilityCertificate, CircleMeasure, DensityMeasure,
                       DiracMeasure, GroundStateMeasure, MeasureMoments,
                       PerturbedMeasure, UniformMeasure, check_hypothesis_v,
                       compute_moments)
from .secular import (RootReport, SecularSeries, build_secular_series,
                      complex_roots_in, eval_secular, eval_secular_derivative,
                      real_roots_in)
from .spectrum import (EigenFunction, SpectrumReport, assemble_spectrum,
                       eigenfunction_at, rayleigh_identity_check)
from .resolvent import (SpectralVector, apply_adjoint_resolvent,
                        apply_dirichlet_resolvent, apply_generator,
                        apply_jump_resolvent, selfadjointness_defect)
from .enclosure import (CheckResult, bound_first_eigenvalue,
                        check_halfplane_exclusion, check_interlacing,
                        check_nested_enclosure, emit_matryoshka_curves,
                        matryoshka_ratio)
from .numrange import blowup_fit, rayleigh_probe, sweep
from .stochastic import (OccupationHistogram, WalkConfig, compare_stationary,
                         simulate_occupation, stationary_prediction)

__version__ = "0.1.0"
