"""Command-line front end: experiment configs, certificates, figures.

A single JSON document describes an experiment: domain, measure, cutoff,
complex window, and the set of tasks to run.  Outputs are deterministic for
a fixed config and seed (sorted JSON keys, repr-formatted floats, integer
histogram counts).

Exit codes: 0 all requested certificates pass, 1 at least one failed,
2 configuration error, 3 no failure but some certificate was inapplicable
or undecidable at the configured cutoff.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import enclosure as en
from . import measures as ms
from . import numrange as nr
from . import resolvent as rv
from . import secular as sec
from . import spectrum as sp
from . import stochastic as st
from .errors import (ConfigError, GeometryError, JumpSpectraError,
                     UndecidableError)
from .geometry import BasisSet, build_basis, rectangle, unit_disk
from .svgfig import render_enclosure_svg

EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_UNDECIDED = 0, 1, 2, 3
CONFIG_VERSION = 1
TASKS = ("spectrum", "enclosure_thm1", "enclosure_thm2", "enclosure_thm3",
         "prop_real", "numrange", "simulate", "figure1")

_DEFAULTS = {
    "cutoff": 2000.0,
    "window": [-1.0, 60.0, -15.0, 15.0],
    "k": 2,
    "thresholds": [0.1, 0.2, 0.3, 0.4],
    "seed": st.WalkConfig.seed,
    "tasks": ["spectrum"],
}


@dataclasses.dataclass
class Experiment:
    config: dict
    basis: BasisSet
    measure: ms.MeasureSpec
    series: sec.SecularSeries
    out_dir: str
    k: int
    thresholds: tuple[float, ...]
    walk: st.WalkConfig
    l1_threshold: float

    @functools.cached_property
    def spectrum(self) -> sp.SpectrumReport:
        """The spectrum report of the configured window."""
        return sp.assemble_spectrum(self.series, self.config["window"])

    @functools.cached_property
    def admissibility(self) -> ms.AdmissibilityCertificate:
        """The level-k admissibility certificate of a perturbed measure."""
        return ms.check_hypothesis_v(self.measure, self.basis, self.k)

    @property
    def spectrum_readers(self) -> set:
        """The checks and tasks that read the spectrum report; the theorems
        read it only for a perturbed measure."""
        perturbed = isinstance(self.measure, ms.PerturbedMeasure)
        return {"spectrum", "conjugation_closure", "spectrum_location"} | (
            {"enclosure_thm1", "enclosure_thm3"} if perturbed else set())


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


class _Keys(dict):
    """A config object that notes the keys read from it and keeps the
    objects read from it as blocks, so that a key nothing reads, a
    misspelt one say, can be refused instead of leaving a default."""

    def __init__(self, items=()):
        super().__init__(items)
        self.read, self.blocks = set(), {}

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def unread(self) -> list:
        """The keys nothing read, a block's as ``name.key``."""
        return [key for key in self if key not in self.read] + [
            f"{name}.{key}" for name, block in self.blocks.items()
            for key in block.unread()]


def _block(cfg: _Keys, name: str) -> _Keys:
    block = cfg.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be an object")
    cfg.blocks[name] = _Keys(block)
    return cfg.blocks[name]


def _read(block: dict, key: str, default, convert, positive=False, where=""):
    """``convert`` of ``block[key]`` (``default`` when absent); a missing
    value, a failed conversion or, with ``positive``, a value that is not
    finite and positive is a ConfigError naming ``where + key``."""
    value = block.get(key, default)
    if value is None:
        raise ConfigError(f"{where}{key} is missing")
    try:
        out = convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}{key}: bad value {value!r}") from exc
    if positive and not (math.isfinite(out) and out > 0):
        raise ConfigError(f"{where}{key} must be finite and positive, "
                          f"got {value!r}")
    return out


def _integer(value) -> int:
    """A JSON number with an integer value, as an int; a bool, a string, a
    NaN, an infinity or a fraction is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    out = math.floor(value)     # raises on NaN and on an infinity
    if out != value:
        raise ValueError(f"{value!r} is not an integer")
    return out


def _finite(value) -> float:
    """``float(value)``; a NaN or an infinity is refused."""
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{value!r} is not finite")
    return out


def _floats(values) -> tuple[float, ...]:
    """A nonempty list of finite numbers, as floats."""
    out = tuple(_finite(v) for v in values)
    if not out:
        raise ValueError("no numbers")
    return out


def _build_domain(cfg: dict):
    dom = _block(cfg, "domain")
    kind = dom.get("kind")
    if kind == "disk":
        return unit_disk()
    if kind == "rectangle":
        return rectangle(*(_read(dom, key, None, float, positive=True,
                                 where="domain.")
                           for key in ("side_x", "side_y")))
    raise ConfigError(f"domain.kind must be 'disk' or 'rectangle', got {kind!r}")


def _load_density_grid(mcfg: dict) -> np.ndarray:
    if "values" in mcfg:
        return _read(mcfg, "values", None, lambda v: np.asarray(v, dtype=float),
                     where="measure.")
    path = _read(mcfg, "file", None, str, where="measure.")
    try:
        return _read_density_file(path)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"measure.file: cannot read {path!r} ({exc})") from exc


def _read_density_file(path: str) -> np.ndarray:
    if path.endswith(".json"):
        with open(path) as fh:
            return np.asarray(json.load(fh), dtype=float)
    # CSV of x,y,w rows forming a complete regular lattice
    xs, ys, ws = [], [], []
    with open(path) as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            x, y, w = (float(v) for v in row[:3])
            xs.append(x); ys.append(y); ws.append(w)
    ux = np.unique(np.asarray(xs))
    uy = np.unique(np.asarray(ys))
    ix = np.searchsorted(ux, xs)
    iy = np.searchsorted(uy, ys)
    # one row per lattice point: a repeated point would leave another unset
    if len(ws) != ux.size * uy.size \
            or np.unique(ix * uy.size + iy).size != len(ws):
        raise ConfigError("density CSV does not form a complete lattice")
    grid = np.empty((ux.size, uy.size))
    grid[ix, iy] = ws
    return grid


def make_mode_perturbation(basis: BasisSet, coefficients: dict,
                           scale: float) -> np.ndarray:
    """Coefficient vector ``v[n] = (chi_n, v)`` of a zero-mean combination of
    basis modes (mean projected out in-span)."""
    idx = sorted(int(i) for i in coefficients)
    if any(i < 0 or i >= len(basis) for i in idx):
        raise ConfigError("perturbation mode index out of range")
    coefs = np.array([float(coefficients[str(i)] if str(i) in coefficients
                            else coefficients[i]) for i in idx])
    ocs = basis.one_coeffs[idx]
    if float(ocs @ ocs) > 0:
        coefs = coefs - ocs * float(coefs @ ocs) / float(ocs @ ocs)
    v = np.zeros(len(basis))
    v[idx] = scale * coefs
    return v


def _build_measure(cfg: dict, basis: BasisSet) -> ms.MeasureSpec:
    mcfg = _block(cfg, "measure")
    variant = mcfg.get("variant")

    def read(key, default=None, convert=_finite):
        return _read(mcfg, key, default, convert, where="measure.")

    if variant == "uniform":
        return ms.UniformMeasure()
    if variant == "ground_state":
        return ms.GroundStateMeasure()
    if variant == "dirac":
        return ms.DiracMeasure(read("x0"), read("y0"))
    if variant == "circle":
        return ms.CircleMeasure(read("r0"))
    if variant == "density_grid":
        grid = _load_density_grid(mcfg)
        return ms.DensityMeasure(ms.density_from_grid(grid, basis.domain))
    if variant == "perturbed":
        base_name = mcfg.get("base", "uniform")
        if base_name == "uniform":
            base = ms.UniformMeasure()
        elif base_name == "ground_state":
            base = ms.GroundStateMeasure()
        else:
            raise ConfigError(f"unknown perturbation base {base_name!r}")
        modes = read("v_modes", {}, lambda m: {
            int(i): _finite(c) for i, c in dict(m).items()})
        v = make_mode_perturbation(basis, modes, read("v_scale", 1.0))
        return ms.PerturbedMeasure(base, v)
    raise ConfigError(f"unknown measure variant {variant!r}")


def _walk_settings(cfg: dict, domain) -> tuple[st.WalkConfig, float]:
    """Walk config and L1 threshold of the ``walk`` block, validated."""
    wcfg = _block(cfg, "walk")

    def read(key, default, convert, positive=True):
        return _read(wcfg, key, default, convert, positive, where="walk.")

    default = st.WalkConfig()
    config = st.WalkConfig(
        step_dt=read("step_dt", default.step_dt, float),
        n_steps=read("n_steps", default.n_steps, _integer),
        n_paths=read("n_paths", default.n_paths, _integer),
        seed=read("seed", _read(cfg, "seed", None, _integer), _integer,
                  positive=False),
        n_bins=read("n_bins", default.n_bins, _integer))
    # restarts land only where the band leaves room
    if config.band() >= domain.inradius:
        raise ConfigError(f"walk boundary band {config.band():g} leaves no "
                          f"interior (inradius {domain.inradius:g})")
    return config, read("l1_threshold", 0.05, float)


def build_experiment(cfg: dict, out_dir: str | None = None) -> Experiment:
    merged = _Keys(_DEFAULTS)
    merged.update(cfg)
    if merged.get("version", CONFIG_VERSION) != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {merged.get('version')}")
    tasks = merged.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError(f"tasks must be a nonempty array of task names, "
                          f"got {tasks!r}")
    bad = [t for t in tasks if t not in TASKS]
    if bad:
        raise ConfigError(f"unknown tasks {bad}; valid: {list(TASKS)}")
    window = list(_read(merged, "window", None, _floats))
    if len(window) != 4 or window[0] >= window[1] or window[2] >= window[3]:
        raise ConfigError(f"window must be [re_lo, re_hi, im_lo, im_hi], got {window}")
    cutoff = _read(merged, "cutoff", None, float, positive=True)
    if window[1] > cutoff - sec.cutoff_margin(cutoff):
        raise ConfigError("window exceeds the cutoff safety margin")
    k = _read(merged, "k", None, _integer, positive=True)
    thresholds = _read(merged, "thresholds", None, _floats)
    domain = _build_domain(merged)
    walk, l1_threshold = _walk_settings(merged, domain)
    try:
        basis = build_basis(domain, cutoff)
        measure = _build_measure(merged, basis)
        moments = ms.compute_moments(measure, basis)
    except JumpSpectraError as exc:
        raise ConfigError(str(exc)) from exc
    if unread := merged.unread():
        raise ConfigError(f"config keys that nothing reads: {', '.join(unread)}")
    if "simulate" in tasks:
        try:
            measure.check_band(domain, walk.band())
        except ValueError as exc:
            raise ConfigError(f"walk: {exc} {walk.band():g}") from exc
    series = sec.build_secular_series(basis, moments)
    merged["window"] = window
    return Experiment(merged, basis, measure, series, out_dir or "out", k,
                      thresholds, walk, l1_threshold)


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------

def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _verdict_row(name, verdict, detail=""):
    return {"name": name, "verdict": verdict, "detail": detail}


def _guarded(rows: list, name: str, fn):
    """``fn()``, or None with a verdict row for ``name`` when it raises an
    undecidable or failing package error."""
    try:
        return fn()
    except UndecidableError as exc:
        rows.append(_verdict_row(name, "undecidable", str(exc)))
    except JumpSpectraError as exc:
        rows.append(_verdict_row(name, en.FAIL, f"{type(exc).__name__}: {exc}"))
    return None


def _check_rows(exp: Experiment, checks) -> list:
    """Rows of ``checks``, (name, check) pairs run in order under the guard;
    ``check(rep)`` returns its row.  ``rep``, the spectrum report, is built
    first if a check reads it; if it cannot be, those checks are left out."""
    reads = exp.spectrum_readers
    rows: list = []
    rep = None
    if reads & {name for name, _ in checks}:
        rep = _guarded(rows, "spectrum", lambda: exp.spectrum)
    for name, check in checks:
        if rep is not None or name not in reads:
            _guarded(rows, name, lambda: rows.append(check(rep)))
    return rows


def _exit_code(rows: list) -> int:
    verdicts = [r["verdict"] for r in rows]
    if en.FAIL in verdicts:
        return EXIT_FAIL
    if any(v in (en.INAPPLICABLE, "undecidable") for v in verdicts):
        return EXIT_UNDECIDED
    return EXIT_PASS


# the theorems, each checked with (experiment, spectrum report) against the
# admissibility certificate of a perturbed measure
_THEOREMS = {
    "enclosure_thm1": lambda exp, rep: en.check_halfplane_exclusion(
        rep, exp.admissibility, exp.k, exp.basis),
    "enclosure_thm2": lambda exp, rep: en.check_interlacing(
        exp.series, exp.admissibility, exp.k),
    "enclosure_thm3": lambda exp, rep: en.check_nested_enclosure(
        rep, exp.admissibility, exp.basis),
    "prop_real": lambda exp, rep: en.bound_first_eigenvalue(
        exp.series, exp.admissibility),
}


def _theorem_row(name: str, exp: Experiment, rep, label=None) -> dict:
    """Row of theorem ``name``, labelled ``label`` or its result's name."""
    if not isinstance(exp.measure, ms.PerturbedMeasure):
        return _verdict_row(name, en.INAPPLICABLE,
                            "measure is not a perturbation")
    res = _THEOREMS[name](exp, rep)
    return _verdict_row(label or res.name, res.verdict, res.detail)


def _task_spectrum(exp: Experiment, rep):
    _write(os.path.join(exp.out_dir, "spectrum.json"), rep.to_json())
    _write(os.path.join(exp.out_dir, "spectrum.csv"), rep.to_csv())
    return _verdict_row("spectrum", en.PASS, f"{len(rep.entries)} entries")


def _task_numrange(exp: Experiment, rep):
    eps = np.logspace(-4, -2, 9)
    try:
        samples = nr.sweep(exp.basis, exp.measure, eps)
    except GeometryError as exc:
        # the trial states cannot be built for this measure and domain
        return _verdict_row("numrange", en.INAPPLICABLE, str(exc))
    _write(os.path.join(exp.out_dir, "numrange_sweep.csv"),
           nr.sweep_to_csv(samples))
    verdict = en.PASS
    details = []
    for d in nr.DIRECTIONS:
        fit = nr.blowup_fit(samples, d)
        details.append(f"dir {nr.DIRECTION_LABELS[d]}: slope {fit.slope:.4f}")
        if abs(fit.slope + 0.5) > 0.05:
            verdict = en.FAIL
    defect = max(s.mean_defect for s in samples)
    if defect > 1e-8:
        verdict = en.FAIL
        details.append(f"domain mean defect {defect:.2e}")
    return _verdict_row("numrange", verdict, "; ".join(details))


def _task_simulate(exp: Experiment, rep):
    hist = st.simulate_occupation(exp.walk, exp.measure, exp.basis)
    pred = st.stationary_prediction(exp.series, hist)
    dist = st.compare_stationary(hist, pred)
    _write(os.path.join(exp.out_dir, "occupation.csv"),
           st.histogram_to_csv(hist, pred))
    return _verdict_row("simulate",
                        en.PASS if dist < exp.l1_threshold else en.FAIL,
                        f"L1 distance {dist:.4f} "
                        f"(threshold {exp.l1_threshold}); "
                        f"restarts {hist.n_restarts}; rejection "
                        f"acceptance {hist.rejection_accepts}/"
                        f"{hist.rejection_attempts}")


def _task_figure1(exp: Experiment, rep):
    curves = en.emit_matryoshka_curves(exp.basis, exp.thresholds)
    _write(os.path.join(exp.out_dir, "enclosure_curves.csv"), curves.to_csv())
    _write(os.path.join(exp.out_dir, "enclosure.svg"),
           render_enclosure_svg(curves, exp.basis))
    F = curves.field_values
    ordered = sorted(exp.thresholds)
    nested = all(np.all((F <= ordered[i]) <= (F <= ordered[i + 1]))
                 for i in range(len(ordered) - 1))
    return _verdict_row("figure1", en.PASS if nested else en.FAIL,
                        f"nesting on {F.size} grid points")


_RUNNERS = {name: functools.partial(_theorem_row, name, label=name)
            for name in _THEOREMS}
_RUNNERS.update(spectrum=_task_spectrum, numrange=_task_numrange,
                simulate=_task_simulate, figure1=_task_figure1)


def run_experiment(exp: Experiment) -> list:
    tasks = exp.config["tasks"]
    # the spectrum is written out whenever a task reads it
    names = [name for name in TASKS if name in tasks
             or name == "spectrum" and exp.spectrum_readers & set(tasks)]
    os.makedirs(exp.out_dir, exist_ok=True)
    rows = _check_rows(exp, [(name, functools.partial(_RUNNERS[name], exp))
                             for name in names])
    summary = {"version": CONFIG_VERSION, "config": exp.config,
               "results": rows}
    _write(os.path.join(exp.out_dir, "summary.json"),
           json.dumps(summary, sort_keys=True, indent=2, default=str) + "\n")
    return rows


# ---------------------------------------------------------------------------
# consolidated verification
# ---------------------------------------------------------------------------

def verify_experiment(exp: Experiment, inject_fault: str | None = None) -> list:
    series = exp.series
    moments = series.moments
    tampered = None
    if inject_fault == "moments":
        tampered = moments.with_moments(moments.moments + 1e-3)
    elif inject_fault is not None:
        raise ConfigError(f"unknown fault kind {inject_fault!r}")

    def bounded(name, fn, threshold, direction="<"):
        def check(rep):
            value = fn()
            ok = value < threshold if direction == "<" else value > threshold
            return _verdict_row(name, en.PASS if ok else en.FAIL,
                                f"value {value:.3e} vs {direction} {threshold:g}")
        return name, check

    def conjugation(rep):
        values = rep.certified_values()
        ok = all(any(abs(np.conj(v) - u) < 1e-8 * (1 + abs(v)) for u in values)
                 for v in values)
        return _verdict_row("conjugation_closure", en.PASS if ok else en.FAIL,
                            f"{len(values)} certified entries")

    def location(rep):
        values = rep.certified_values()
        lam1 = exp.basis.eigenvalues[0]
        ok = all(v.real >= -1e-9 for v in values) \
            and all(abs(v) < 1e-9 or abs(v.real) > 1e-9 for v in values) \
            and not any(1e-9 < v.real < lam1 - 1e-9 and abs(v.imag) < 1e-12
                        for v in values)
        return _verdict_row("spectrum_location", en.PASS if ok else en.FAIL,
                            "Re >= 0; only 0 on the imaginary axis; "
                            "nothing below the first Dirichlet eigenvalue")

    checks = [bounded(f"resolvent_identity[{lam:g}]",
                      lambda lam=lam: rv.resolvent_identity_defect(
                          series, lam, generator_moments=tampered), 1e-8)
              for lam in (-1.0, -5.0)]
    if moments.l2_density_norm is not None:
        checks += [
            bounded("adjoint_pairing[-1]",
                    lambda: rv.adjoint_pairing_defect(series, -1.0), 1e-8),
            bounded("adjoint_kernel", lambda: rv.adjoint_kernel_defect(series),
                    1e-8),
            bounded("nonselfadjointness",
                    lambda: rv.selfadjointness_defect(series), 1e-6, ">")]
    else:
        checks.append(("adjoint_checks", lambda rep: _verdict_row(
            "adjoint_checks", en.INAPPLICABLE, "measure has no L2 density")))
    checks += [("conjugation_closure", conjugation),
               ("spectrum_location", location)]
    if isinstance(exp.measure, ms.PerturbedMeasure):
        names = (("enclosure_thm1", "enclosure_thm2", "prop_real")
                 if exp.admissibility.base_kind == "uniform"
                 else ("enclosure_thm3",))
        checks += [(name, functools.partial(_theorem_row, name, exp))
                   for name in names]
    return _check_rows(exp, checks)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _print_rows(rows):
    width = max(len(r["name"]) for r in rows) + 2
    for r in rows:
        print(f"{r['name']:<{width}} {r['verdict']:<13} {r['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jump-spectra",
        description="spectral certificates for restart diffusion generators")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the tasks of an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--cutoff", type=float, default=None)

    p_ver = sub.add_parser("verify", help="run the consolidated certificate suite")
    p_ver.add_argument("config")
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--inject-fault", default=None,
                       help="corrupt a data path (moments) as a negative control")

    p_fig = sub.add_parser("figure1", help="emit the nested-enclosure figure")
    p_fig.add_argument("--thresholds", default="0.1,0.2,0.3,0.4")
    p_fig.add_argument("--domain", default="disk", choices=["disk", "rectangle"])
    p_fig.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    try:
        if args.command == "figure1":
            sides = ({"side_x": math.pi, "side_y": math.pi}
                     if args.domain == "rectangle" else {})
            cfg = {"domain": {"kind": args.domain, **sides},
                   "measure": {"variant": "uniform"},
                   "tasks": ["figure1"],
                   "thresholds": list(_read(
                       vars(args), "thresholds", None,
                       lambda v: _floats(v.split(",")), where="--"))}
            return _exit_code(run_experiment(build_experiment(cfg, args.out)))
        cfg = load_config(args.config)
        for key in ("seed", "cutoff"):
            if getattr(args, key, None) is not None:
                cfg[key] = getattr(args, key)
        exp = build_experiment(cfg, args.out)
        rows = run_experiment(exp) if args.command == "run" \
            else verify_experiment(exp, args.inject_fault)
        _print_rows(rows)
        return _exit_code(rows)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:     # e.g. a histogram of walk.n_bins cells
        print(f"configuration error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
