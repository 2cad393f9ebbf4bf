"""Dependency-free SVG rendering of the nested-enclosure figure."""

from __future__ import annotations

from .enclosure import EnclosureCurves
from .geometry import BasisSet

_STYLES = (
    ("#1f4fd8", "none", 1.6),            # solid blue
    ("#d62728", "4,3", 1.6),             # dotted red
    ("#2ca02c", "8,3,2,3", 1.6),         # dash-dot green
    ("#8c8c8c", "7,4", 1.6),             # dashed gray
)

_W, _H = 960, 520
_ML, _MR, _MT, _MB = 60, 20, 20, 45


def _mapper(re_lo, re_hi, im_lo, im_hi):
    sx = (_W - _ML - _MR) / (re_hi - re_lo)
    sy = (_H - _MT - _MB) / (im_hi - im_lo)

    def to_px(re, im):
        return (_ML + (re - re_lo) * sx, _H - _MB - (im - im_lo) * sy)

    return to_px


def render_enclosure_svg(curves: EnclosureCurves, basis: BasisSet) -> str:
    re_lo, re_hi = float(curves.re_grid[0]), float(curves.re_grid[-1])
    im_lo, im_hi = float(curves.im_grid[0]), float(curves.im_grid[-1])
    to_px = _mapper(re_lo, re_hi, im_lo, im_hi)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    # axes
    x0, y0 = to_px(re_lo, 0.0)
    x1, _ = to_px(re_hi, 0.0)
    parts.append(f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x1:.1f}" '
                 f'y2="{y0:.1f}" stroke="#444" stroke-width="0.8"/>')
    for re in range(int(re_lo), int(re_hi) + 1, 10):
        px, py = to_px(re, im_lo)
        parts.append(f'<line x1="{px:.1f}" y1="{py:.1f}" x2="{px:.1f}" '
                     f'y2="{py - 5:.1f}" stroke="#444" stroke-width="0.8"/>')
        parts.append(f'<text x="{px:.1f}" y="{py + 16:.1f}" font-size="11" '
                     f'text-anchor="middle" fill="#222">{re}</text>')
    for im in range(int(im_lo), int(im_hi) + 1, 5):
        px, py = to_px(re_lo, im)
        parts.append(f'<line x1="{px:.1f}" y1="{py:.1f}" x2="{px + 5:.1f}" '
                     f'y2="{py:.1f}" stroke="#444" stroke-width="0.8"/>')
        parts.append(f'<text x="{px - 8:.1f}" y="{py + 4:.1f}" font-size="11" '
                     f'text-anchor="end" fill="#222">{im}</text>')
    parts.append(f'<text x="{(_W - _ML - _MR) / 2 + _ML:.1f}" y="{_H - 8}" '
                 f'font-size="12" text-anchor="middle" fill="#222">Re</text>')
    parts.append(f'<text x="14" y="{(_H - _MT - _MB) / 2 + _MT:.1f}" '
                 f'font-size="12" text-anchor="middle" fill="#222">Im</text>')

    # enclosure boundaries, one style per threshold
    for i, t in enumerate(curves.thresholds):
        color, dash, width = _STYLES[i % len(_STYLES)]
        dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
        for poly in curves.curves[t]:
            if len(poly) < 2:
                continue
            pts = " ".join(f"{to_px(p[0], p[1])[0]:.2f},{to_px(p[0], p[1])[1]:.2f}"
                           for p in poly)
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="{width}"{dash_attr}/>')

    # Dirichlet eigenvalues as black dots, one per cluster
    for lam in basis.cluster_means:
        if lam > re_hi:
            break
        px, py = to_px(lam, 0.0)
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.2" fill="black"/>')

    # legend
    lx, ly = _W - 190, _MT + 10
    parts.append(f'<rect x="{lx - 10}" y="{ly - 14}" width="180" '
                 f'height="{18 * len(curves.thresholds) + 14}" fill="white" '
                 f'stroke="#999" stroke-width="0.7"/>')
    for i, t in enumerate(curves.thresholds):
        color, dash, _ = _STYLES[i % len(_STYLES)]
        dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
        yy = ly + 18 * i
        parts.append(f'<line x1="{lx}" y1="{yy}" x2="{lx + 34}" y2="{yy}" '
                     f'stroke="{color}" stroke-width="1.6"{dash_attr}/>')
        parts.append(f'<text x="{lx + 42}" y="{yy + 4}" font-size="11" '
                     f'fill="#222">threshold {t:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
