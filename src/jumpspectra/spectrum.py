"""Assembly and classification of the generator spectrum.

The point spectrum of the restart generator decomposes into
    * the kernel point 0 (constants),
    * zeros of the secular series away from the Dirichlet spectrum, and
    * Dirichlet eigenvalues whose eigenspace contains a vector with zero
      measure mean (such a vector is an eigenfunction).
Dirichlet eigenvalues whose entire eigenspace has nonzero measure mean are
reported but flagged undetermined: membership there is not decidable with
the certificates this package maintains, and they never enter certified
statistics.  The eigenvectors at the secular roots are built and checked in
``resolvent``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .secular import SecularSeries, complex_roots_in, real_roots_in

KERNEL_ZERO = "kernel_zero"
SECULAR_ROOT = "secular_root"
EMBEDDED_DIRICHLET = "embedded_dirichlet"
UNDETERMINED_DIRICHLET = "undetermined_dirichlet"

_MOMENT_ZERO_TOL = 1e-9
_IM_BAND = 0.01            # nonreal roots are sought from this Im up


@dataclass(frozen=True)
class SpectrumEntry:
    value: complex
    kind: str
    multiplicity: int | None       # geometric multiplicity, None if unknown
    residual: float
    certificate: str

    @property
    def certified(self) -> bool:
        return self.kind != UNDETERMINED_DIRICHLET


@dataclass(frozen=True)
class SpectrumReport:
    entries: tuple[SpectrumEntry, ...]
    window: tuple[float, float, float, float]
    lambda1: float | None          # min Re over certified nonzero entries
    lambda1_pessimistic: float | None   # including undetermined candidates
    window_limited: bool = True

    def certified_values(self) -> list[complex]:
        return [e.value for e in self.entries if e.certified]

    def nonreal_entries(self) -> list[SpectrumEntry]:
        return [e for e in self.entries if abs(e.value.imag) > 0]

    def to_json(self) -> str:
        payload = {
            "window": list(self.window),
            "lambda1": self.lambda1,
            "lambda1_pessimistic": self.lambda1_pessimistic,
            "window_limited": self.window_limited,
            "entries": [
                {"value_re": e.value.real, "value_im": e.value.imag,
                 "kind": e.kind, "multiplicity": e.multiplicity,
                 "residual": e.residual, "certificate": e.certificate}
                for e in self.entries
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["value_re", "value_im", "kind", "multiplicity",
                         "residual"])
        for e in self.entries:
            writer.writerow([repr(e.value.real), repr(e.value.imag), e.kind,
                             e.multiplicity, repr(e.residual)])
        return buf.getvalue()


def _classify_dirichlet(series: SecularSeries, window):
    """Embedded/undetermined split of the Dirichlet clusters in the window:
    the rows of the basis's cluster table whose mean lies in it."""
    basis = series.basis
    lo = np.searchsorted(basis.cluster_means, window[0], side="left")
    hi = np.searchsorted(basis.cluster_means, window[1], side="right")
    entries = []
    for lam, start, dim in zip(basis.cluster_means[lo:hi].tolist(),
                               basis.cluster_starts[lo:hi].tolist(),
                               basis.cluster_sizes[lo:hi].tolist()):
        mvec = series.moments.moments[start:start + dim]
        mnorm = float(np.linalg.norm(mvec))
        if mnorm <= _MOMENT_ZERO_TOL:
            entries.append(SpectrumEntry(
                complex(lam), EMBEDDED_DIRICHLET, dim, mnorm,
                f"all {dim} eigenfunctions have zero measure mean"))
        elif dim >= 2:
            entries.append(SpectrumEntry(
                complex(lam), EMBEDDED_DIRICHLET, dim - 1, 0.0,
                f"{dim - 1}-dim zero-mean subspace of a {dim}-dim eigenspace"))
        else:
            entries.append(SpectrumEntry(
                complex(lam), UNDETERMINED_DIRICHLET, None, mnorm,
                "simple Dirichlet eigenvalue with nonzero measure mean; "
                "membership not decided"))
    return entries


def assemble_spectrum(series: SecularSeries, window) -> SpectrumReport:
    """All spectrum entries in the complex window (Im band-limited search).

    ``window`` is ``(re_lo, re_hi, im_lo, im_hi)``; nonreal roots are sought
    for ``_IM_BAND <= Im <= im_hi`` and reported together with their
    conjugates.
    """
    re_lo, re_hi, im_lo, im_hi = (float(v) for v in window)
    entries = [SpectrumEntry(0j, KERNEL_ZERO, 1, 0.0,
                             "constants span the kernel")]

    for root in real_roots_in(series, re_lo, re_hi):
        if abs(root.value) < 1e-9:
            continue    # the kernel point is reported once, as kernel_zero
        entries.append(SpectrumEntry(
            complex(root.value), SECULAR_ROOT, 1, root.residual,
            f"secular zero bracketed in {root.bracket}"))

    if im_hi > _IM_BAND:
        report = complex_roots_in(series, (re_lo, re_hi, _IM_BAND, im_hi))
        for r in report.complex_roots:
            z = complex(r.value)
            entries.append(SpectrumEntry(z, SECULAR_ROOT, 1, r.residual,
                                         "argument-principle zero"))
            if -z.imag >= im_lo:
                entries.append(SpectrumEntry(
                    z.conjugate(), SECULAR_ROOT, 1, r.residual,
                    "conjugate of an argument-principle zero"))

    entries.extend(_classify_dirichlet(series, window))
    entries.sort(key=lambda e: (e.value.real, e.value.imag))

    nonzero = [e for e in entries if abs(e.value) > 1e-12]
    certified = [e.value.real for e in nonzero if e.certified]
    everything = [e.value.real for e in nonzero]
    return SpectrumReport(tuple(entries), (re_lo, re_hi, im_lo, im_hi),
                          min(certified) if certified else None,
                          min(everything) if everything else None)
