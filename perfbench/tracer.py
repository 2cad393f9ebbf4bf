"""Traced in-process run of one ``jump-spectra`` CLI op, plus span analysis.

Run as a script, it imports the package, wraps the public functions the CLI
calls (and the torsion callables and ``SecularSeries`` evaluation methods)
from outside the package, calls ``jumpspectra.cli.main`` with the remaining
arguments, and writes the spans and counters as JSON when the op ends:

    python3 perfbench/tracer.py SPANS.json OP_ID -- run CONFIG --out DIR

Nothing under ``src/`` is changed; every wrapper lives in this file.  Spans
are held in memory as ``[name, start, end, parent, op]`` and each layer's
self time is its spans' durations minus their direct children.  Series
evaluations and ``brentq`` calls are counted, not spanned, so their time
falls to the span that called them.
"""

import time

_T0 = time.perf_counter()

import collections  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

LAYERS = ("cli", "geometry", "measures", "secular", "spectrum", "resolvent",
          "enclosure", "svgfig", "numrange", "stochastic")
# problem sizes rather than work: kept as the largest value seen, not summed
SIZE_COUNTS = ("geometry.modes", "geometry.quad_nodes", "secular.poles",
               "spectrum.entries")


class Tracer:
    """Span stack and counters for one op."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   self.stack[-1] if self.stack else -1, self.op_id]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(args, out)
            return out
        return wrapper


def _counter(fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        count(args, out)
        return out
    return wrapper


def _replace_everywhere(modules, original, replacement):
    """Rebind every module-level name that refers to ``original``."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _series_terms(g):
    """Series terms per point of a torsion callable (1 for closed forms)."""
    names = g.__code__.co_freevars
    cells = g.__closure__ or ()
    for key, cell in zip(names, cells):
        if key == "kap":
            return int(cell.cell_contents.size)
    return 1


def install(tracer):
    """Wrap the package's layer entry points; returns the wrapped ``main``."""
    import numpy as np
    from jumpspectra import (_kernels, cli, enclosure, geometry, measures,
                             numrange, resolvent, secular, spectrum,
                             stochastic, svgfig)
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "jumpspectra" or n.startswith("jumpspectra.")]
    counts = tracer.counts

    def span(owner, attr, name, count=None):
        original = getattr(owner, attr)
        _replace_everywhere(modules, original,
                            tracer.wrap(name, original, count))

    def inc(key):
        return lambda a, out: counts.update({key: 1})

    def size(key, value):
        counts[key] = max(counts[key], int(value))

    def basis_counts(a, out):
        size("geometry.modes", len(out))
        size("geometry.quad_nodes", out.quadrature.n_nodes)

    def field_counts(a, out):
        basis, re_grid, im_grid = a[:3]
        counts["enclosure.field_pair_evals"] += (
            len(re_grid) * len(im_grid) * basis.eigenvalues.size)

    def curve_counts(a, out):
        counts["enclosure.curve_points"] += sum(len(line) for line in out)

    def root_counts(a, out):
        counts["secular.contour_boxes"] += len(out.zero_count_boxes)
        counts["secular.complex_roots"] += len(out.complex_roots)

    def walk_counts(a, out):
        seeds, n_steps = a[0], a[1]
        stats = out[2]
        counts["stochastic.steps"] += int(seeds.size) * int(n_steps)
        counts["stochastic.restarts"] += int(stats[0])
        counts["stochastic.rejection_attempts"] += int(stats[1])
        counts["stochastic.rejection_accepts"] += int(stats[2])

    def engine_counts(a, out):
        counts["stochastic.numba_runs"] += int(bool(out.used_numba))

    def torsion_factory(original):
        def make(*args, **kwargs):
            g = original(*args, **kwargs)
            terms = _series_terms(g)

            def evals(a, out):
                counts["geometry.torsion_term_evals"] += terms * int(
                    np.broadcast(np.asarray(a[0]), np.asarray(a[1])).size)
            return tracer.wrap("geometry.torsion", g, evals)
        return make

    span(cli, "build_experiment", "cli.build_experiment")
    span(cli, "run_experiment", "cli.run_experiment")
    span(cli, "verify_experiment", "cli.verify_experiment")
    span(geometry, "build_basis", "geometry.build_basis", basis_counts)
    span(geometry, "layer_quadrature", "geometry.layer_quadrature",
         inc("geometry.layer_quadrature_calls"))
    for attr in ("torsion_function", "torsion_second"):
        original = getattr(geometry, attr)
        _replace_everywhere(modules, original, torsion_factory(original))
    span(measures, "compute_moments", "measures.compute_moments")
    span(measures, "measure_integral", "measures.measure_integral",
         inc("measures.measure_integral_calls"))
    span(measures, "check_hypothesis_v", "measures.check_hypothesis_v")
    span(secular, "build_secular_series", "secular.build",
         lambda a, out: size("secular.poles", out.poles.size))
    span(secular, "real_roots_in", "secular.real_roots")
    span(secular, "complex_roots_in", "secular.complex_roots", root_counts)
    span(spectrum, "assemble_spectrum", "spectrum.assemble",
         lambda a, out: size("spectrum.entries", len(out.entries)))
    for attr in ("resolvent_identity_defect", "adjoint_pairing_defect",
                 "adjoint_kernel_defect", "selfadjointness_defect"):
        span(resolvent, attr, "resolvent.checks")
    for attr in ("check_halfplane_exclusion", "check_interlacing",
                 "bound_first_eigenvalue", "check_nested_enclosure"):
        span(enclosure, attr, "enclosure.certificates")
    span(enclosure, "emit_matryoshka_curves", "enclosure.curves")
    span(enclosure, "ratio_field", "enclosure.ratio_field", field_counts)
    span(enclosure, "marching_squares", "enclosure.marching_squares",
         curve_counts)
    span(svgfig, "render_enclosure_svg", "svgfig.render")
    span(numrange, "sweep", "numrange.sweep")
    span(numrange, "blowup_fit", "numrange.fit")
    span(stochastic, "simulate_occupation", "stochastic.simulate",
         engine_counts)
    span(_kernels, "run_walk", "stochastic.walk", walk_counts)
    span(stochastic, "stationary_prediction", "stochastic.prediction")
    span(stochastic, "compare_stationary", "stochastic.compare")

    # counted, not spanned: cheap calls made thousands of times
    probe = numrange.rayleigh_probe
    _replace_everywhere(modules, probe,
                        _counter(probe, inc("numrange.probes")))
    secular.brentq = _counter(secular.brentq, inc("secular.brent_calls"))
    for attr in ("sum_values", "sum_derivative"):
        method = getattr(secular.SecularSeries, attr)

        def series_count(a, out):
            points = int(np.size(a[1]))
            counts["secular.series_points"] += points
            counts["secular.series_term_evals"] += points * int(a[0].poles.size)
        setattr(secular.SecularSeries, attr, _counter(method, series_count))

    return tracer.wrap("cli.main", cli.main)


def self_times(spans):
    """Self time per span name: duration minus direct children's durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    out = collections.defaultdict(float)
    for i, (name, start, end, parent, op) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out


def merge_counts(docs_counts):
    """Counters of several ops: sizes by maximum, work by sum."""
    out = collections.Counter()
    for counts in docs_counts:
        for key, value in counts.items():
            out[key] = max(out[key], value) if key in SIZE_COUNTS \
                else out[key] + value
    return out


def inclusive_times(spans):
    """Wall time per span name, not counting spans nested in one of the
    same name twice."""
    out = collections.defaultdict(float)
    for name, start, end, parent, op in spans:
        if not any(spans[p][0] == name for p in _ancestors(spans, parent)):
            out[name] += end - start
    return out


def _ancestors(spans, parent):
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def main(argv):
    spans_path, op_id = argv[0], int(argv[1])
    cli_args = argv[argv.index("--") + 1:]
    import jumpspectra.cli  # noqa: F401  (the console script imports this)
    setup_s = time.perf_counter() - _T0
    tracer = Tracer(op_id)
    traced_main = install(tracer)
    try:
        code = traced_main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"op": op_id, "setup_s": setup_s,
                       "spans": tracer.spans,
                       "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
