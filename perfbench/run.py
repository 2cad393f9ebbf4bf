#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``jump-spectra`` CLI.

    python3 perfbench/run.py --workload rect_certify --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

From the repository root, each run writes its workload's configs from
``--seed``, then repeats rounds of ops (``run`` then ``verify`` of each
config), each in a fresh interpreter, for at most ``--seconds``.  Every
op's outputs are checked.  With ``--trace 0`` the last line holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
one extra traced in-process run of each op (see ``tracer.py``), and the
untraced rounds still run so the tracing overhead can be measured.  Every
run also makes one ``verify --inject-fault moments`` op on the tiny form of
the workload's first config, which the checks must count as failed.  Configs, outputs, spans and ``result.json`` are kept
under ``perfbench/out/<workload>/seed<seed>-trace<0|1>/``.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")

BLAS_THREADS = 1               # pinned for every op; at most nproc
DEFAULT_SEED = 1               # the seed whose spectra are kept in reference/
SETUP_REPEATS = 5              # fresh-interpreter imports per run
RUN_BUDGET_S = 120.0           # start no op that would end after this
DEADLINE_S = 170.0             # kill any op still running at this point
REL_TOL = 1e-9                 # spectrum reference tolerance, relative

END_TO_END = {                 # name -> unit
    "run_s": "s", "verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}
LAYER_TIMES = {                # metric -> span name whose self time it is
    "geometry.torsion_s": "geometry.torsion",
    "geometry.layer_quadrature_s": "geometry.layer_quadrature",
    "geometry.build_basis_s": "geometry.build_basis",
    "measures.moments_s": "measures.compute_moments",
    "secular.build_s": "secular.build",
    "secular.real_roots_s": "secular.real_roots",
    "secular.complex_roots_s": "secular.complex_roots",
    "spectrum.assemble_s": "spectrum.assemble",
    "resolvent.checks_s": "resolvent.checks",
    "enclosure.certificates_s": "enclosure.certificates",
    "enclosure.ratio_field_s": "enclosure.ratio_field",
    "enclosure.marching_squares_s": "enclosure.marching_squares",
    "svgfig.render_s": "svgfig.render",
    "numrange.sweep_s": "numrange.sweep",
    "stochastic.walk_s": "stochastic.walk",
    "stochastic.prediction_s": "stochastic.prediction",
}
LAYER_COUNTS = (
    "geometry.torsion_term_evals", "geometry.layer_quadrature_calls",
    "geometry.modes", "geometry.quad_nodes", "measures.measure_integral_calls",
    "secular.poles", "secular.brent_calls", "secular.contour_boxes",
    "secular.complex_roots", "secular.series_points",
    "secular.series_term_evals", "spectrum.entries",
    "enclosure.field_pair_evals", "enclosure.curve_points", "numrange.probes",
    "stochastic.steps", "stochastic.restarts",
)
# ROADMAP baseline, compared with the first traced numbers
BASELINE = {
    "rect_certify": ("secular.build inclusive", "s", 6.2, 6.9),
    "disk_point_mass": ("figure-1 curves (enclosure.curves inclusive)", "s",
                        2.0, 2.5),
    "disk_walk": ("walk steps/s (baseline at step_dt 1e-5)", "1/s",
                  4.0e6, 5.0e6),
}

sys.path.insert(0, HERE)
import tracer  # noqa: E402


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["JUMPSPECTRA_NUMBA"] = "0"      # no claim may rest on the numba engine
    return env


def run_child(argv, log_path, env, deadline):
    """Run one fresh interpreter, killed at ``deadline`` (perf_counter);
    returns (wall s, exit code, rusage)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


CLI = ["-c", "import sys; from jumpspectra.cli import main; sys.exit(main())"]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _rows(text):
    rows = []
    for line in text.splitlines():
        parts = line.split(None, 2)
        if len(parts) >= 2:
            rows.append((parts[0], parts[1], parts[2] if len(parts) > 2 else ""))
    return rows


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _spectrum_mismatch(spectrum_bytes, reference):
    entries = json.loads(spectrum_bytes)["entries"]
    got = [(e["value_re"], e["value_im"], e["kind"]) for e in entries]
    if len(got) != len(reference):
        return f"{len(got)} entries, reference has {len(reference)}"
    for (re, im, kind), (rre, rim, rkind) in zip(got, reference):
        if kind != rkind:
            return f"kind {kind} at {re}{im:+}j, reference {rkind}"
        for a, b in ((re, rre), (im, rim)):
            if abs(a - b) > REL_TOL * max(1.0, abs(b)):
                return f"value {re}{im:+}j, reference {rre}{rim:+}j"
    return None


def check_op(op, expected_exit, first, reference):
    """Reasons this op counts as failed (empty when it passed).

    ``first`` maps op kind to the outputs of the first op of that kind in
    this run; every later op must reproduce them byte for byte.
    """
    reasons = []
    if op["exit"] not in expected_exit:
        reasons.append(f"exit code {op['exit']} not in {sorted(expected_exit)}")
    text = (_read(op["log"]) or b"").decode(errors="replace")
    rows = _rows(text)
    if not rows:
        reasons.append("no result rows printed")
    reasons += [f"row {name} is fail: {detail}"
                for name, verdict, detail in rows if verdict == "fail"]
    for name, verdict, detail in rows:
        if name == "simulate":
            words = detail.replace("(", " ").replace(")", " ").split()
            try:
                dist = float(words[words.index("distance") + 1])
                limit = float(words[words.index("threshold") + 1])
            except (ValueError, IndexError):
                reasons.append(f"unparsable walk row: {detail}")
                continue
            if not dist < limit:
                reasons.append(f"walk L1 {dist} at or above {limit}")
    if op["kind"] == "run":
        outputs = {name: _read(os.path.join(op["out"], name))
                   for name in ("summary.json", "spectrum.json")}
    else:
        outputs = {"stdout": text.encode()}
    if any(v is None for v in outputs.values()):
        reasons.append("missing output files")
    elif op["kind"] in first:
        reasons += [f"{name} differs from the first {op['kind']} op"
                    for name, value in outputs.items()
                    if first[op["kind"]][name] != value]
    else:
        first[op["kind"]] = outputs
    if reference is not None and op["kind"] == "run" and outputs["spectrum.json"]:
        bad = _spectrum_mismatch(outputs["spectrum.json"], reference)
        if bad:
            reasons.append(f"spectrum differs from reference: {bad}")
    return reasons


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:           # older numpy: no dict form of the config
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def _spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def layer_metrics(docs, traced_walls, untraced_walls, out_bytes):
    """Per-layer metrics from the traced ops' span documents."""
    self_s, incl = {}, {}
    for doc in docs:
        for name, value in tracer.self_times(doc["spans"]).items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in tracer.inclusive_times(doc["spans"]).items():
            incl[name] = incl.get(name, 0.0) + value
    counts = tracer.merge_counts(doc["counts"] for doc in docs)
    m = {}
    for metric, span in LAYER_TIMES.items():
        m[metric] = (self_s.get(span, 0.0), "s")
    m["cli.build_experiment_s"] = (incl.get("cli.build_experiment", 0.0), "s")
    for layer in tracer.LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in self_s.items()
                                    if k.split(".")[0] == layer), "s")
    for name in LAYER_COUNTS:
        m[name] = (counts.get(name, 0), "count")
    walk = self_s.get("stochastic.walk", 0.0)
    m["stochastic.steps_per_s"] = (
        counts.get("stochastic.steps", 0) / walk if walk > 0 else 0.0, "1/s")
    attempts = counts.get("stochastic.rejection_attempts", 0)
    m["stochastic.rejection_acceptance"] = (
        counts.get("stochastic.rejection_accepts", 0) / attempts
        if attempts else 0.0, "ratio")
    m["cli.output_bytes"] = (out_bytes, "bytes")
    setup = sum(doc["setup_s"] for doc in docs)
    attributed = sum(self_s.values())
    m["trace.run_s"] = (sum(traced_walls), "s")
    m["trace.setup_s"] = (setup, "s")
    m["trace.unattributed_s"] = (sum(traced_walls) - setup - attributed, "s")
    m["trace.overhead_frac"] = (sum(traced_walls) / sum(untraced_walls) - 1.0,
                                "ratio")
    return m, counts


def baseline_note(config, run_doc):
    """Compare the traced ``run`` op of ``config`` with the ROADMAP baseline."""
    label, unit, lo, hi = BASELINE[config]
    incl = tracer.inclusive_times(run_doc["spans"])
    if config == "rect_certify":
        value = incl.get("secular.build", 0.0)
    elif config == "disk_point_mass":
        value = incl.get("enclosure.curves", 0.0)
    else:
        walk = tracer.self_times(run_doc["spans"]).get("stochastic.walk", 0.0)
        steps = run_doc["counts"].get("stochastic.steps", 0)
        value = steps / walk if walk > 0 else 0.0
    if lo <= value <= hi:
        note = "within the ROADMAP baseline"
    else:
        note = (f"gap: {value:.4g} {unit} against the ROADMAP baseline "
                f"{lo:g}-{hi:g} {unit}")
        if config == "disk_walk":
            note += ("; this walk uses step_dt 4e-4, whose restarts cost "
                     "more per step than the baseline's 1e-5")
    return {"config": config, "what": label, "value": value, "unit": unit,
            "baseline": [lo, hi], "note": note}


def _largest_self(doc):
    self_s = tracer.self_times(doc["spans"])
    if not self_s:
        return None, 0.0
    name = max(self_s, key=self_s.get)
    return name, self_s[name]


def run_workload(workload, seed, seconds, trace, tiny=False, log=print):
    """One benchmark run; returns the result dict (also kept in result.json).

    Ops cycle through ``run`` and ``verify`` of each of the workload's
    configs.  After one op of every kind, the next op in turn whose last
    duration still fits in ``seconds`` is started, so a run measures at
    most that long and short ops fill the end.
    """
    import workloads
    configs = workloads.WORKLOADS[workload]
    sequence = [(c, k) for c in configs for k in ("run", "verify")]
    run_dir = os.path.join(OUT, workload,
                           f"seed{seed}-trace{int(trace)}" + ("-tiny" if tiny else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = child_env()
    t_start = time.perf_counter()
    deadline = t_start + DEADLINE_S

    cfg_paths, references, firsts = {}, {}, {}
    for c in configs:
        cfg_paths[c] = os.path.join(run_dir, f"config-{c}.json")
        with open(cfg_paths[c], "w") as fh:
            json.dump(workloads.make_config(c, seed, tiny), fh, indent=1)
        references[c] = None
        if seed == DEFAULT_SEED and not tiny:
            with open(os.path.join(REFERENCE, f"{c}.json")) as fh:
                references[c] = [tuple(e) for e in json.load(fh)["entries"]]
        firsts[c] = {}
    ctl_config = configs[0]
    ctl_path = os.path.join(run_dir, "control.json")
    with open(ctl_path, "w") as fh:
        json.dump(workloads.make_config(ctl_config, seed, tiny=True), fh,
                  indent=1)

    problems = []
    setup = []
    for i in range(SETUP_REPEATS):
        wall, code, _ = run_child([sys.executable, "-c", "import jumpspectra"],
                                  os.path.join(run_dir, f"setup{i}.log"), env,
                                  deadline)
        setup.append(wall)
        if code != 0:
            problems.append(f"import exited with {code}")

    ops = []

    def op(config, kind, index, traced=False):
        name = f"op{index}-{config}-{kind}" + ("-traced" if traced else "")
        rec = {"config": config, "kind": kind,
               "out": os.path.join(run_dir, name),
               "log": os.path.join(run_dir, name + ".log"), "traced": traced}
        args = [kind, cfg_paths[config], "--out", rec["out"]]
        if traced:
            rec["spans"] = os.path.join(run_dir, name + ".spans.json")
            argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                    rec["spans"], str(index), "--"] + args
        else:
            argv = [sys.executable] + CLI + args
        rec["wall"], rec["exit"], usage = run_child(argv, rec["log"], env,
                                                    deadline)
        rec["rss_mb"] = usage.ru_maxrss / 1024.0
        rec["cpu"] = usage.ru_utime + usage.ru_stime
        rec["failed"] = check_op(
            rec, workloads.CONFIGS[config].expected_exit[kind],
            firsts[config], references[config])
        ops.append(rec)
        log(f"op {name}: {rec['wall']:.3f} s wall, {rec['cpu']:.3f} s cpu, "
            f"exit {rec['exit']}, "
            f"peak {rec['rss_mb']:.1f} MB"
            + (f", FAILED: {'; '.join(rec['failed'])}" if rec["failed"] else ""))
        return rec

    last = {}                  # (config, kind) -> wall of its latest op
    t_loop = time.perf_counter()
    index = pos = 0            # ops made; place in the sequence
    while True:
        turn = [sequence[(pos + j) % len(sequence)]
                for j in range(len(sequence))]
        if index < len(sequence):
            key = turn[0]
        else:
            now = time.perf_counter()
            # a traced run still owes one traced op of every kind
            owed = sum(last.values()) if trace else 0.0
            room = min(seconds - (now - t_loop),
                       RUN_BUDGET_S - (now - t_start) - owed)
            # the next op in turn that still fits, so short ops fill the end
            key = next((k for k in turn if last[k] <= room), None)
            if key is None:
                break
        last[key] = op(*key, index)["wall"]
        index += 1
        pos += turn.index(key) + 1

    untraced = [o for o in ops if not o["traced"]]
    walls = {key: [o["wall"] for o in untraced
                   if (o["config"], o["kind"]) == key] for key in sequence}
    result = {"workload": workload, "configs": list(configs), "seed": seed,
              "trace": int(trace), "tiny": tiny, "seconds": seconds,
              "measured_s": time.perf_counter() - t_loop}
    engine = "not traced"

    if trace:
        traced = [op(c, k, index + i, traced=True)
                  for i, (c, k) in enumerate(sequence)]
        docs = []
        for rec in traced:
            try:
                with open(rec["spans"]) as fh:
                    docs.append(json.load(fh))
            except (OSError, ValueError) as exc:
                problems.append(f"no spans from {rec['log']}: {exc}")
        if len(docs) == len(traced):
            out_bytes = sum(_dir_bytes(r["out"]) + os.path.getsize(r["log"])
                            for r in traced)
            m, counts = layer_metrics(
                docs, [r["wall"] for r in traced],
                [statistics.median(walls[r["config"], r["kind"]])
                 for r in traced],
                out_bytes)
            result["layers"] = m
            result["addup"] = []
            for r, d in zip(traced, docs):
                span, span_s = _largest_self(d)
                result["addup"].append(
                    {"op": f"{r['config']} {r['kind']}", "wall": r["wall"],
                     "setup": d["setup_s"],
                     "self": sum(tracer.self_times(d["spans"]).values()),
                     "largest": span, "largest_s": span_s})
            result["baseline"] = [
                baseline_note(r["config"], d)
                for r, d in zip(traced, docs) if r["kind"] == "run"]
            if counts.get("stochastic.numba_runs", 0):
                problems.append("the numba walk engine ran; run is invalid")
            engine = ("numba" if counts.get("stochastic.numba_runs")
                      else "numpy" if counts.get("stochastic.steps")
                      else "no walk")

    control = {"kind": "verify", "out": os.path.join(run_dir, "control"),
               "log": os.path.join(run_dir, "control.log")}
    control["wall"], control["exit"], _ = run_child(
        [sys.executable] + CLI + ["verify", ctl_path, "--out", control["out"],
                                  "--inject-fault", "moments"],
        control["log"], env, deadline)
    control_reasons = check_op(
        control, workloads.CONFIGS[ctl_config].expected_exit["verify"], {},
        None)
    result["control_tripped"] = bool(control_reasons)
    log(f"negative control (verify --inject-fault moments on tiny "
        f"{ctl_config}): "
        f"{'counted as failed' if control_reasons else 'NOT detected'}"
        + (f" ({control_reasons[0]})" if control_reasons else ""))
    if not control_reasons:
        problems.append("the injected fault was not detected")

    def parts(samples):
        lo, hi = _spread(samples)
        return {"median": statistics.median(samples), "p25": lo, "p75": hi,
                "n": len(samples), "samples": samples}

    e2e = {
        "run_s": {c: parts(walls[c, "run"]) for c in configs},
        "verify_s": {c: parts(walls[c, "verify"]) for c in configs},
        "setup_s": {"import": parts(setup)},
        "peak_rss_mb": {
            f"{c} {k}": parts([max(o["rss_mb"] for o in untraced
                                   if (o["config"], o["kind"]) == (c, k))])
            for c, k in sequence},
    }
    result["end_to_end"] = {}
    for name, by_part in e2e.items():
        medians = [p["median"] for p in by_part.values()]
        # one op of each config makes one user-visible call of the workload
        value = max(medians) if name == "peak_rss_mb" else sum(medians)
        if name == "peak_rss_mb":
            top = max(by_part, key=lambda k: by_part[k]["median"])
            by_part = {top: by_part[top]}
        result["end_to_end"][name] = {"value": value,
                                      "unit": END_TO_END[name],
                                      "parts": by_part}
    failed = sum(1 for o in ops if o["failed"])
    result["attempted"] = len(ops)
    result["failed"] = failed
    result["error_rate"] = failed / len(ops)
    result["problems"] = problems
    result["correct"] = failed == 0 and not problems
    result["environment"] = environment()
    result["environment"]["walk_engine"] = engine
    result["elapsed_s"] = time.perf_counter() - t_start
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result, trace, log=print):
    """Print every metric by name and unit; returns the final JSON object."""
    env = result["environment"]
    log("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, e in result["end_to_end"].items():
        detail = "; ".join(
            f"{part}: median of {p['n']}, quartiles "
            f"{p['p25']:.6g}-{p['p75']:.6g}" for part, p in e["parts"].items())
        log(f"{name:<34} {e['value']:.6g} {e['unit']}  ({detail})")
    log(f"{'error_rate':<34} {result['error_rate']:.6g} ratio  "
        f"({result['failed']} of {result['attempted']} ops failed)")
    for name, (value, unit) in result.get("layers", {}).items():
        log(f"{name:<34} {value:.6g} {unit}")
    for a in result.get("addup", []):
        log(f"traced {a['op']}: setup {a['setup']:.3f} s + layer self "
            f"{a['self']:.3f} s = {a['setup'] + a['self']:.3f} s "
            f"of {a['wall']:.3f} s wall; largest self time "
            f"{a['largest']} {a['largest_s']:.3f} s")
    for b in result.get("baseline", []):
        log(f"baseline check, {b['config']} {b['what']}: "
            f"{b['value']:.4g} {b['unit']}; {b['note']}")
    for p in result["problems"]:
        log(f"problem: {p}")
    if trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in result.get("layers", {}).items()}
    else:
        metrics = {k: {"value": e["value"], "unit": e["unit"]}
                   for k, e in result["end_to_end"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------
# self-test at tiny size
# ---------------------------------------------------------------------------

def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        result = run_workload(workload, DEFAULT_SEED, 0, True, tiny=True)
        lines = []
        report(result, True, log=lines.append)
        print("\n".join(lines))
        for metric in bench["end_to_end"] + bench["per_layer"]:
            if not any(line.startswith(f"{metric['name']:<34} ")
                       and line.split()[2] == metric["unit"]
                       for line in lines):
                failures.append(f"{workload}: {metric['name']} not printed "
                                f"with unit {metric['unit']}")
        if not any(line.startswith("error_rate ") for line in lines):
            failures.append(f"{workload}: error_rate not printed")
        if not result["control_tripped"]:
            failures.append(f"{workload}: negative control did not trip")
        if result["failed"]:
            failures.append(f"{workload}: {result['failed']} ops failed")
        for a in result.get("addup", []):
            gap = a["wall"] - a["setup"] - a["self"]
            if not 0.0 <= gap <= 0.25 + 0.05 * a["wall"]:
                failures.append(f"{workload}: traced {a['op']} self times "
                                f"plus setup miss the wall time by {gap:.3f} s")
        if "addup" not in result:
            failures.append(f"{workload}: traced run produced no spans")
    for f in failures:
        print("SELF-TEST FAIL:", f)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


def main(argv=None):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload at tiny size and check the harness")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jumpspectra", "cli.py")):
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
