"""Boundary-layer probes showing the Rayleigh quotient escapes to infinity.

The trial functions are ``psi = 1 + phi - b * theta`` where ``phi`` rescales
a fixed cubic profile of the boundary distance into a collar of width eps,
``theta`` is a smooth interior bump normalised to unit measure mean, and
``b`` subtracts the measure mean of ``phi`` so that ``psi`` stays in the
generator domain (boundary value and measure mean both equal 1).

The quotient splits, by the divergence theorem with inner normal, into an
exactly computed boundary term  perimeter * direction / sqrt(eps)  plus an
O(1) gradient volume term; sweeping eps over decades and fitting the
dominant component on a log-log scale exhibits the -1/2 power in all four
axis directions of the complex plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import BasisSet, layer_quadrature
from .measures import MeasureSpec, measure_integral

DIRECTIONS = (1.0 + 0j, -1.0 + 0j, 1j, -1j)
DIRECTION_LABELS = {1.0: "+1", -1.0: "-1", 1j: "+i", -1j: "-i"}
BUMP_RADIUS_FRAC = 0.25       # bump radius as a fraction of the inradius


def profile(s):
    """Cubic boundary profile: zero at both ends, unit slope at 0."""
    s = np.asarray(s, dtype=float)
    return s * (1.0 - s) ** 2


def profile_derivative(s):
    s = np.asarray(s, dtype=float)
    return (1.0 - s) * (1.0 - 3.0 * s)


@dataclass(frozen=True)
class RayleighSample:
    direction: complex
    epsilon: float
    quotient: complex
    norm_sq: float
    b_eps: complex
    mean_defect: float
    boundary_term: complex
    volume_term: float


def _bump(domain, frac):
    cx, cy = domain.incenter
    rb = frac * domain.inradius

    def theta(x, y):
        u = np.hypot(np.asarray(x, dtype=float) - cx,
                     np.asarray(y, dtype=float) - cy) / rb
        out = np.zeros_like(u)
        core = u < 1.0
        out[core] = np.exp(-1.0 / (1.0 - u[core] ** 2))
        return out

    def grad_sq(x, y):
        u = np.hypot(np.asarray(x, dtype=float) - cx,
                     np.asarray(y, dtype=float) - cy) / rb
        out = np.zeros_like(u)
        core = u < 1.0 - 1e-12
        uc = u[core]
        d = np.exp(-1.0 / (1.0 - uc ** 2)) * 2.0 * uc / (1.0 - uc ** 2) ** 2
        out[core] = (d / rb) ** 2
        return out

    return theta, grad_sq, rb


@dataclass(frozen=True)
class _BumpTerms:
    """Integrals of the interior bump, normalised to unit measure mean."""
    radius: float
    int_theta: float
    int_theta_sq: float
    int_grad_theta_sq: float


@dataclass(frozen=True)
class _LayerTerms:
    """Direction-free sums of one layer width's collar rule."""
    epsilon: float
    b_raw: float              # measure mean of the profile, before direction
    b_check: float            # the same on the finer rule
    sum_g: float
    sum_g_sq: float
    sum_gp_sq: float


def _bump_terms(basis: BasisSet, spec: MeasureSpec) -> _BumpTerms:
    theta, theta_grad_sq, rb = _bump(basis.domain, BUMP_RADIUS_FRAC)
    theta_mass = measure_integral(spec, basis, theta)
    if abs(theta_mass) < 1e-12:
        raise GeometryError(
            f"the measure puts negligible mass on the interior bump of radius "
            f"{rb:g} around the incenter")
    rule = basis.quadrature
    theta_vals = rule.values(theta) / theta_mass
    return _BumpTerms(
        rb,
        float(np.real(rule.integrate(theta_vals))),
        float(np.real(rule.integrate(theta_vals ** 2))),
        float(np.real(rule.integrate(rule.values(theta_grad_sq))))
        / theta_mass ** 2)


def _layer_terms(basis: BasisSet, spec: MeasureSpec, eps: float,
                 rb: float) -> _LayerTerms:
    domain = basis.domain
    if eps >= domain.inradius - rb:
        raise GeometryError(
            f"layer width {eps} reaches the bump of radius {rb}")
    rule, ls = layer_quadrature(domain, eps)
    lw = rule.w
    g_vals = profile(ls)
    gp_vals = profile_derivative(ls)

    # measure mean of the layer profile; the bump mean is normalised to 1,
    # so <psi>_mu - 1 equals the error of the layer quadrature for b, which
    # a finer rule measures; a singular measure's mean is exact
    w = spec.density(basis)
    if w is None:
        rho = spec.support_distance(domain)
        b_raw = math.sqrt(eps) * profile(rho / eps) if rho < eps else 0.0
        b_check = b_raw
    else:
        b_raw = math.sqrt(eps) * float(np.sum(lw * g_vals * rule.values(w)))
        fine, ls2 = layer_quadrature(domain, eps, n_s=48, n_tan=384)
        b_check = math.sqrt(eps) * float(
            np.sum(fine.w * profile(ls2) * fine.values(w)))
    return _LayerTerms(eps, b_raw, b_check, float(np.sum(lw * g_vals)),
                       float(np.sum(lw * g_vals ** 2)),
                       float(np.sum(lw * gp_vals ** 2)))


def rayleigh_probe(d: complex, layer: _LayerTerms, bump: _BumpTerms,
                   domain) -> RayleighSample:
    """Quotient of the generator quadratic form over the trial state of
    direction ``d`` on one layer width, from that width's direction-free
    collar sums and the shared bump integrals."""
    eps = layer.epsilon
    b_eps = d * layer.b_raw
    int_phi = d * math.sqrt(eps) * layer.sum_g
    int_phi_sq = eps * layer.sum_g_sq
    layer_grad = layer.sum_gp_sq / eps

    norm_sq = (domain.area + 2.0 * (int_phi - b_eps * bump.int_theta).real
               + int_phi_sq + abs(b_eps) ** 2 * bump.int_theta_sq)
    boundary_term = domain.boundary_weight * d / math.sqrt(eps)
    volume_term = layer_grad + abs(b_eps) ** 2 * bump.int_grad_theta_sq
    quotient = (boundary_term + volume_term) / norm_sq
    mean_defect = abs(d * layer.b_check - b_eps)
    return RayleighSample(d, eps, quotient, norm_sq, b_eps, mean_defect,
                          boundary_term, volume_term)


def sweep(basis: BasisSet, spec: MeasureSpec,
          epsilons) -> list[RayleighSample]:
    """``rayleigh_probe`` over ``DIRECTIONS`` x epsilons, sharing the
    direction-free layer and bump integrals."""
    epsilons = [float(eps) for eps in epsilons]
    bump = _bump_terms(basis, spec)
    layers = {eps: _layer_terms(basis, spec, eps, bump.radius)
              for eps in epsilons}
    return [rayleigh_probe(complex(d), layers[eps], bump, basis.domain)
            for d in DIRECTIONS for eps in epsilons]


@dataclass(frozen=True)
class BlowupFit:
    direction: complex
    slope: float
    intercept: float
    r_squared: float


def blowup_fit(samples: list[RayleighSample], direction: complex) -> BlowupFit:
    """log-log fit of the dominant quotient component against eps."""
    pts = [s for s in samples if s.direction == complex(direction)]
    if len(pts) < 4:
        raise ValueError("need at least 4 sweep points for a fit")
    eps = np.array([s.epsilon for s in pts])
    dominant = np.array([(s.quotient * np.conj(s.direction)).real for s in pts])
    if np.any(dominant <= 0):
        raise ValueError("dominant component must stay positive along the sweep")
    x = np.log(eps)
    y = np.log(dominant)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(res[0]) if res.size else float(np.sum((y - A @ [slope, intercept]) ** 2))
    return BlowupFit(complex(direction), float(slope), float(intercept),
                     1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0)


def sweep_to_csv(samples: list[RayleighSample]) -> str:
    lines = ["epsilon,direction_re,direction_im,re,im,norm"]
    for s in samples:
        lines.append(f"{s.epsilon!r},{s.direction.real!r},{s.direction.imag!r},"
                     f"{s.quotient.real!r},{s.quotient.imag!r},"
                     f"{math.sqrt(s.norm_sq)!r}")
    return "\n".join(lines) + "\n"
