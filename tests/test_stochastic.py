import dataclasses
import hashlib
import math
import os
import signal
import time

import numpy as np
import pytest
from scipy.special import jv
from scipy.stats import kstest

from jumpspectra import _kernels, geometry, measures, secular, stochastic as st
from jumpspectra._kernels import derive_seeds
from jumpspectra.errors import RejectionEfficiencyError

J01 = 2.404825557695773


def mass_check(hist):
    return float(np.sum(hist.normalized_density * hist.bin_areas))


SMALL = st.WalkConfig(step_dt=1e-4, n_steps=3000, n_paths=300, seed=11,
                      n_bins=16)


@pytest.fixture(scope="module")
def small_uniform_run(disk_basis):
    return st.simulate_occupation(SMALL, measures.UniformMeasure(), disk_basis)


def test_histogram_mass(small_uniform_run):
    assert mass_check(small_uniform_run) == pytest.approx(1.0, abs=1e-12)


def test_seed_determinism(disk_basis, small_uniform_run):
    again = st.simulate_occupation(SMALL, measures.UniformMeasure(), disk_basis)
    assert np.array_equal(small_uniform_run.counts, again.counts)
    assert (small_uniform_run.n_restarts, small_uniform_run.rejection_attempts,
            small_uniform_run.rejection_accepts) == (
        again.n_restarts, again.rejection_attempts, again.rejection_accepts)


# SHA-256 of (counts, restarts/attempts/accepts) of the SMALL walk, with
# every step binned at its midpoint (the exit step included)
PINNED = {
    "disk-uniform":
        "58d13487a85cbbb5e7d14a8b1506e4cc3c60b896ee85eb2cb3a3eb0322eabc09",
    "disk-ground_state":
        "eb1d175cbbecf82ed85a1f27575a0730775a96b83f2ff855750529836b9f4855",
    "disk-dirac":
        "a8bfa341c30b0714f0e7b8c5361f749ca0d37b73d5f2b9b32c33ecc4405d6a9b",
    "disk-circle":
        "92095e447cee01bc19d9274818b1faa82e3ad794703f857d962a72d0af366ba6",
    "disk-density":
        "8af49e5b54256790f112e3585cbb634956c5505dd6a61bc9432925218f2f0fa8",
    "rect-uniform":
        "48a2d5990eb9f5836d193ca752d0ea4ce40bf3a465bb7c98181ad1a5c006ebd4",
    "rect-dirac":
        "0a7dc531b2e5b14ee12b0a83bca2a57e382c223eec1ecae8957268e02d8f9262",
    "rect-ground_state":
        "90444bb3357450f02ea7d3fe26ef7c30809c527b6451e8fdc972df1d21c99f8b",
    "rect-density":
        "d615169b00997fbcf542a00c270b8947fe5d887caba12d49392f110f0d8ad53f",
}
# the SMALL disk-uniform walk at a coarse step: with 16 annuli at dt 4e-3
# many exit steps start below the last annulus (r < 0.9375), so binning an
# exit step anywhere but at its midpoint moves the counts, which the
# digests above at dt 1e-4 do not see
COARSE = dataclasses.replace(SMALL, step_dt=4e-3)
PINNED_COARSE = \
    "3479bf9dd3b0cf9b403e7605445989e98b7b3b8b8fc34bb1e58cdb644432ea8b"


@pytest.fixture(scope="module")
def walk_domains(disk, disk_basis):
    rect = geometry.rectangle(math.pi, 1.2337 * math.pi)
    return {"disk": (disk, disk_basis),
            "rect": (rect, geometry.build_basis(rect, 300.0))}


def walk_case(name, walk_domains):
    """Domain, basis and restart measure of a "domain-measure" case: every
    restart draw on the disk; uniform, point and grid-table on the
    rectangle."""
    where, kind = name.split("-")
    domain, basis = walk_domains[where]
    disk = where == "disk"
    spec = {
        "uniform": measures.UniformMeasure(),
        "ground_state": measures.GroundStateMeasure(),
        "dirac": measures.DiracMeasure(*((0.3, -0.2) if disk else (1.0, 2.0))),
        "circle": measures.CircleMeasure(0.5),
        "density": measures.DensityMeasure(
            (lambda x, y: 1.0 + 0.5 * x) if disk
            else (lambda x, y: 1.0 + 0.5 * np.cos(x))),
    }[kind]
    return domain, basis, spec


def walk_digest(config, spec, basis):
    """SHA-256 of a walk's counts and its restart and rejection counters."""
    run = st.simulate_occupation(config, spec, basis)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(run.counts, dtype=np.int64).tobytes())
    h.update(np.array([run.n_restarts, run.rejection_attempts,
                       run.rejection_accepts], dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_engine_pinned_digest(name, walk_domains):
    _, basis, spec = walk_case(name, walk_domains)
    assert walk_digest(SMALL, spec, basis) == PINNED[name]


def test_exit_step_binning_pinned(walk_domains):
    _, basis, spec = walk_case("disk-uniform", walk_domains)
    assert walk_digest(COARSE, spec, basis) == PINNED_COARSE


def sincos_turns(u):
    """The kernel's cos(2 pi u) and sin(2 pi u), on fresh buffers."""
    u = np.array(u, dtype=float)
    c, s = np.empty_like(u), np.empty_like(u)
    _kernels._sincos_turns(u, c, s, [np.empty_like(u) for _ in range(3)])
    return c, s


def turns_sample():
    """10^5 dyadic u = k 2^-53 in (0, 1], the quarter turns, and every node
    h / 1024 of the kernel's table with its neighbours 1 ulp away."""
    k = np.random.default_rng(28).integers(1, 2 ** 53, 100_000, np.uint64,
                                           endpoint=True)
    nodes = np.arange(_kernels._NODES + 1) / _kernels._NODES
    return np.concatenate([k * 2.0 ** -53, [2.0 ** -53, 0.25, 0.5, 0.75, 1.0],
                           nodes, np.nextafter(nodes, 2.0)[:-1],
                           np.nextafter(nodes, -1.0)[1:]])


def sincos_error(u):
    """Largest distance of the kernel's cos and sin from ``np.cos`` and
    ``np.sin`` of 2 pi u, and of c^2 + s^2 from 1."""
    c, s = sincos_turns(u)
    angle = 2.0 * math.pi * u
    return max(np.abs(c - np.cos(angle)).max(),
               np.abs(s - np.sin(angle)).max(),
               np.abs(c * c + s * s - 1.0).max())


def test_sincos_turns_accuracy():
    assert sincos_error(turns_sample()) <= 1e-15
    # the quarter turns come from the table alone, exactly
    c, s = sincos_turns([0.25, 0.5, 0.75, 1.0])
    assert c.tolist() == [0.0, -1.0, 0.0, 1.0]
    assert s.tolist() == [1.0, 0.0, -1.0, 0.0]


def test_sincos_turns_bound_sees_a_shifted_table(monkeypatch):
    # negative control: a table one node off breaks the bound
    for name in ("_COS_NODE", "_SIN_NODE"):
        monkeypatch.setattr(_kernels, name,
                            np.roll(getattr(_kernels, name), 1))
    assert sincos_error(turns_sample()) > 1e-15


def next_uniform(state, idx):
    """The next uniform of each stream ``state[idx]``, advancing it by one
    draw: the reference loops take their uniforms one at a time."""
    state[idx] += _kernels._GOLDEN
    s = state[idx]
    return _kernels._unit(s, np.empty_like(s), np.empty(s.shape))


def one_round_restart(state, mask, draw, domain, btol, stats, x, y):
    """Restart the paths of ``mask`` one rejection round at a time: the
    reference for the kernel's batched rounds."""
    pending = mask.copy()
    while np.any(pending):
        idx = np.nonzero(pending)[0]
        u = np.empty((draw.uniforms, idx.size))
        for row in u:
            row[:] = next_uniform(state, idx)
        px, py, placed = draw(u)
        ok = ~domain.outside(px, py, btol)
        if placed is not None:
            stats[1] += idx.size
            stats[2] += int(np.sum(placed))
            if stats[1] >= _kernels._FLOOR_ATTEMPTS:
                _kernels.check_acceptance(int(stats[1]), int(stats[2]))
            ok &= placed
        done = idx[ok]
        x[done] = px[ok]
        y[done] = py[ok]
        pending[done] = False


def step_loop(seeds, n_steps, dt, btol, domain, draw, n_bins):
    """The walk one step at a time over all paths: the reference the block
    engine must reproduce bit for bit.  Exits and bins use formulas of their
    own: radial bins on the disk, n_bins x n_bins cells on the rectangle.
    Returns (hist, stats, exits): the (step, path) of every exit, in that
    order."""
    disk = isinstance(domain, geometry.Disk)
    nx, ny = n_bins, (1 if disk else n_bins)
    d0, d1 = (None, None) if disk else (domain.side_x, domain.side_y)
    n = seeds.size
    step = math.sqrt(2.0 * dt)
    state = seeds.copy()
    stats = np.zeros(3, dtype=np.int64)
    x, y = np.empty(n), np.empty(n)

    def restart(mask):
        one_round_restart(state, mask, draw, domain, btol, stats, x, y)

    restart(np.ones(n, dtype=bool))
    hist = np.zeros(nx * ny, dtype=np.int64)
    exits = []
    everyone = np.arange(n)
    for t in range(n_steps):
        u1 = next_uniform(state, everyone)
        u2 = next_uniform(state, everyone)
        r = np.sqrt(-2.0 * np.log(u1))
        c, s = sincos_turns(u2)
        xn = x + step * (r * c)
        yn = y + step * (r * s)
        if disk:
            exited = xn * xn + yn * yn >= (1.0 - btol) ** 2
        else:
            exited = ~((btol < xn) & (xn < d0 - btol)
                       & (btol < yn) & (yn < d1 - btol))
        bx = 0.5 * (x + xn)
        by = 0.5 * (y + yn)
        if disk:
            ib = np.minimum((np.hypot(bx, by) * nx).astype(int), nx - 1)
        else:
            ib = (np.clip((bx / d0 * nx).astype(int), 0, nx - 1) * ny
                  + np.clip((by / d1 * ny).astype(int), 0, ny - 1))
        np.add.at(hist, ib, 1)
        x[:] = np.where(exited, x, xn)
        y[:] = np.where(exited, y, yn)
        restart(exited)
        exits += [(t, p) for p in np.nonzero(exited)[0]]
    stats[0] = len(exits)
    return hist, stats, exits


@pytest.fixture
def force_shards(monkeypatch):
    """``force_shards(k)`` splits every later walk into ``k`` shards, or one
    per path when there are fewer paths."""
    def force(k):
        monkeypatch.setattr(_kernels, "_shard_count",
                            lambda n_paths, n_steps: min(k, n_paths))
    return force


# (case, paths, steps, dt, seed); paths exit two to four times per 64-step
# block on average, so their step clocks drift more than a block apart
DRIFT_CASES = [
    ("disk-uniform", 48, 400, 1e-2, 20),
    ("rect-ground_state", 30, 300, 2e-2, 10),
]

ENGINE_CASES = [
    ("disk-ground_state", 40, 37, 1e-4, 100),     # one partial block
    ("disk-uniform", 30, 150, 1e-3, 1000),        # not a multiple of K
    ("rect-density", 1, 500, 1e-2, 1000),         # a single path
    ("disk-circle", 200, 70, 1e-2, 5),            # many exits per block
    ("rect-uniform", 3000, 12, 1e-2, 10_000),     # wide block, row sums
    *DRIFT_CASES,
]


def engine_params():
    """Each case at 1, 2 and 3 shards (200 / 3 splits unevenly)."""
    for case in ENGINE_CASES:
        name = "-".join(map(str, case))
        for k in (1, 2, 3):
            yield pytest.param(*case, k,
                               id=name if k == 1 else f"{name}-{k}shards")


def clock_drift(exits, paths, n_steps):
    """Largest gap between the step clocks of two of ``paths`` after a pass
    of their shard, from the reference's ``exits``: a pass advances each
    path a block of steps, or to just past its first exit in that block."""
    block = max(1, min(_kernels._BLOCK, _kernels._BLOCK_CELLS // len(paths)))
    clocks = {p: 0 for p in paths}
    drift = 0
    while min(clocks.values()) < n_steps:
        for p, t0 in clocks.items():
            end = min(t0 + block, n_steps)
            clocks[p] = min([t + 1 for t, q in exits if q == p and t0 <= t]
                            + [end])
        drift = max(drift, max(clocks.values()) - min(clocks.values()))
    return drift, block


def engine_matches_step_loop(case, walk_domains):
    """Run ``case`` on the engine and on the step loop and assert equal
    bits; returns the reference's exits."""
    name, n_paths, n_steps, dt, seed = case
    domain, basis, spec = walk_case(name, walk_domains)
    args = (derive_seeds(seed, n_paths), n_steps, dt,
            st.WalkConfig(step_dt=dt).band(), domain, spec.restart(basis), 7)
    hist, _, stats = _kernels.run_walk(*args)
    want_hist, want_stats, exits = step_loop(*args)
    assert stats[0] > 0
    assert np.array_equal(hist, want_hist)
    assert np.array_equal(stats, want_stats)
    return exits


@pytest.mark.parametrize("name, n_paths, n_steps, dt, seed, shards",
                         engine_params())
def test_engine_matches_step_loop(name, n_paths, n_steps, dt, seed, shards,
                                  force_shards, walk_domains):
    case = (name, n_paths, n_steps, dt, seed)
    force_shards(shards)
    exits = engine_matches_step_loop(case, walk_domains)
    if case in DRIFT_CASES:
        k = min(shards, n_paths)
        for i in range(k):
            paths = range(n_paths * i // k, n_paths * (i + 1) // k)
            drift, block = clock_drift(exits, paths, n_steps)
            assert drift > block


def test_engine_bits_do_not_depend_on_block_width(monkeypatch, force_shards,
                                                  walk_domains):
    # 64 steps x paths per block: 2-step blocks over a shard of 24 paths
    monkeypatch.setattr(_kernels, "_BLOCK_CELLS", 64)
    force_shards(2)
    engine_matches_step_loop(DRIFT_CASES[0], walk_domains)


def walk_with_draw_failing(walk_domains, in_parent, in_child):
    """A 2-shard walk whose restart draw calls ``in_parent()`` in this
    process and ``in_child()`` in the forked shard."""
    domain, basis, spec = walk_case("disk-uniform", walk_domains)
    draw = spec.restart(basis)
    parent = os.getpid()

    def failing(u):
        (in_parent if os.getpid() == parent else in_child)()
        return draw(u)

    failing.uniforms = draw.uniforms

    _kernels.run_walk(derive_seeds(2, 20), 50, 1e-3, 0.05, domain, failing,
                      7)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_shard_exception_reraised(force_shards, walk_domains):
    force_shards(2)

    def fail():
        raise ValueError("draw failed in the shard")

    with pytest.raises(ValueError, match="^draw failed in the shard$"):
        walk_with_draw_failing(walk_domains, lambda: None, fail)
    assert_no_child_left()


def test_shard_killed_by_signal(force_shards, walk_domains):
    force_shards(2)
    with pytest.raises(RuntimeError, match="walk shard 1 was killed"):
        walk_with_draw_failing(walk_domains, lambda: None,
                               lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert_no_child_left()


def test_parent_failure_kills_shards(force_shards, walk_domains):
    # the child's first draw sleeps a minute; the parent's failure must end it
    force_shards(2)
    slept = []

    def fail():
        raise KeyError("parent")

    def hang():
        if not slept:
            slept.append(True)
            time.sleep(60)

    began = time.monotonic()
    with pytest.raises(KeyError):
        walk_with_draw_failing(walk_domains, fail, hang)
    assert time.monotonic() - began < 30
    assert_no_child_left()


def restart_radii(spec, disk_basis, n=10_000):
    """Radii of ``n`` restarts from ``spec``'s draw through the kernel's
    restart, band rejection included, at the SMALL walk's band; returns
    (radii, outer radius of the band)."""
    band = SMALL.band()
    x, y = np.full(n, np.nan), np.full(n, np.nan)
    _kernels._np_restart(derive_seeds(SMALL.seed, n), np.arange(n),
                         spec.restart(disk_basis), disk_basis.domain, band,
                         np.zeros(3, dtype=np.int64), x, y)
    return np.hypot(x, y), 1.0 - band


def test_uniform_restart_distribution(disk_basis):
    # squared radii of uniform restarts off the band are uniform on (0, b^2)
    r, b = restart_radii(measures.UniformMeasure(), disk_basis)
    assert r.max() < b
    assert kstest(r ** 2, "uniform", args=(0.0, b * b)).pvalue > 0.01


def test_ground_state_restart_distribution(disk_basis):
    r, b = restart_radii(measures.GroundStateMeasure(), disk_basis)

    def mass(x):            # ground-state mass of the disk of radius x
        return x * jv(1, J01 * x)

    assert r.max() < b
    assert kstest(r, lambda x: mass(x) / mass(b)).pvalue > 0.01


def test_dirac_restarts(disk_basis):
    r, _ = restart_radii(measures.DiracMeasure(0.0, 0.0), disk_basis)
    assert r.max() == 0.0


def test_circle_restarts(disk_basis):
    r, _ = restart_radii(measures.CircleMeasure(0.5), disk_basis)
    assert np.abs(r - 0.5).max() < 1e-12


def test_restart_point_inside_band_rejected(disk_basis):
    # dt 2e-2 makes the band 0.5826 * sqrt(0.04) = 0.117, which covers r = 0.9
    cfg = st.WalkConfig(step_dt=2e-2, n_steps=10, n_paths=2)
    with pytest.raises(ValueError):
        st.simulate_occupation(cfg, measures.DiracMeasure(0.9, 0.0),
                               disk_basis)


def test_stationary_prediction_uniform(disk_basis, uniform_disk,
                                       small_uniform_run):
    pred = st.stationary_prediction(uniform_disk, small_uniform_run)
    # analytic profile: twice the torsion function, normalised
    mid = (np.arange(small_uniform_run.config.n_bins) + 0.5) \
        / small_uniform_run.config.n_bins
    exact = 2.0 * (1.0 - mid ** 2) / math.pi
    assert np.abs(pred - exact).max() < 5e-3      # bin-average vs midpoint
    # mass consistency of the prediction
    assert np.sum(pred * small_uniform_run.bin_areas) == pytest.approx(
        1.0, abs=1e-6)


def test_prediction_self_distance_zero(uniform_disk, small_uniform_run):
    pred = st.stationary_prediction(uniform_disk, small_uniform_run)
    fake = dataclasses.replace(small_uniform_run, normalized_density=pred)
    assert st.compare_stationary(fake, pred) == 0.0


def test_small_run_l1(small_uniform_run, uniform_disk):
    pred = st.stationary_prediction(uniform_disk, small_uniform_run)
    assert st.compare_stationary(small_uniform_run, pred) < 0.15


def test_wall_annulus_without_exit_step_bias(disk_basis, groundstate_disk):
    # 2e6 steps of a ground-state walk, whose stationary density J_0(j r)
    # vanishes at the wall: binning the exit step at its old position
    # instead of its midpoint left the last annulus 14-20% short
    # (seeds 1-6), with this bound met by none of them
    cfg = st.WalkConfig(step_dt=4e-4, n_steps=2000, n_paths=1000, seed=1,
                        n_bins=24)
    run = st.simulate_occupation(cfg, measures.GroundStateMeasure(),
                                 disk_basis)
    pred = st.stationary_prediction(groundstate_disk, run)
    assert abs(run.normalized_density[-1] / pred[-1] - 1.0) < 0.08


def test_rectangle_simulation():
    rect = geometry.rectangle(math.pi, math.pi)
    basis = geometry.build_basis(rect, 200.0)
    cfg = st.WalkConfig(step_dt=1e-4, n_steps=4000, n_paths=400, seed=3,
                        n_bins=8)
    run = st.simulate_occupation(cfg, measures.UniformMeasure(), basis)
    assert mass_check(run) == pytest.approx(1.0, abs=1e-12)
    mom = measures.compute_moments(measures.UniformMeasure(), basis)
    series = secular.build_secular_series(basis, mom)
    pred = st.stationary_prediction(series, run)
    assert st.compare_stationary(run, pred) < 0.25


def test_histogram_csv(small_uniform_run, uniform_disk):
    pred = st.stationary_prediction(uniform_disk, small_uniform_run)
    text = st.histogram_to_csv(small_uniform_run, pred)
    lines = text.strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,density_empirical,density_predicted"
    assert len(lines) == small_uniform_run.counts.size + 1


def test_rejection_efficiency_guard(disk_basis):
    # a density concentrated on a tiny spot drives the acceptance below 1%
    def spike(x, y):
        r2 = (x - 0.2) ** 2 + y ** 2
        return np.where(r2 < 1e-4, 1.0 / (math.pi * 1e-4), 0.0)

    spec = measures.DensityMeasure(spike)
    cfg = st.WalkConfig(step_dt=1e-4, n_steps=50, n_paths=20, seed=1)
    with pytest.raises(RejectionEfficiencyError):
        st.simulate_occupation(cfg, spec, disk_basis)


def attempts_in(error):
    return int(str(error.value).split("/")[1].split()[0])


def test_rejection_floor_stops_the_shard(disk_basis):
    # the spot of test_rejection_efficiency_guard places a path about once
    # in 10^4 attempts; the floor stops the walk from 10^4 attempts on, not
    # after the 206,775 attempts the whole walk makes
    def spike(x, y):
        r2 = (x - 0.2) ** 2 + y ** 2
        return np.where(r2 < 1e-4, 1.0 / (math.pi * 1e-4), 0.0)

    cfg = st.WalkConfig(step_dt=1e-4, n_steps=50, n_paths=20, seed=1)
    with pytest.raises(RejectionEfficiencyError) as error:
        st.simulate_occupation(cfg, measures.DensityMeasure(spike), disk_basis)
    assert _kernels._FLOOR_ATTEMPTS <= attempts_in(error) \
        < _kernels._FLOOR_ATTEMPTS + cfg.n_paths


def test_rejection_floor_after_a_short_walk(disk_basis):
    # a spot of radius 0.06 accepts about 0.5% of the attempts; the walk
    # makes fewer than 10^4, so the check after the walk raises
    def spot(x, y):
        r2 = (x - 0.2) ** 2 + y ** 2
        return np.where(r2 < 0.06 ** 2, 1.0 / (math.pi * 0.06 ** 2), 0.0)

    cfg = st.WalkConfig(step_dt=1e-4, n_steps=50, n_paths=20, seed=1)
    with pytest.raises(RejectionEfficiencyError) as error:
        st.simulate_occupation(cfg, measures.DensityMeasure(spot), disk_basis)
    assert attempts_in(error) < _kernels._FLOOR_ATTEMPTS


def test_check_acceptance():
    _kernels.check_acceptance(0, 0)
    _kernels.check_acceptance(100, 1)
    with pytest.raises(RejectionEfficiencyError,
                       match="^rejection acceptance 0/100 fell below 1%$"):
        _kernels.check_acceptance(100, 0)


def test_shard_rejection_floor_reraised(force_shards, disk):
    # the child shard's draw never accepts: its 10 paths trip the floor at
    # exactly 10^4 attempts, and the caller raises the same error type
    force_shards(2)
    parent = os.getpid()

    def draw(u):
        at = np.zeros(u.shape[1])
        return at, at.copy(), np.full(u.shape[1], os.getpid() == parent)

    draw.uniforms = 0

    with pytest.raises(RejectionEfficiencyError,
                       match="^rejection acceptance 0/10000 fell below 1%$"):
        _kernels.run_walk(derive_seeds(2, 20), 50, 1e-3, 0.05, disk, draw,
                          7)
    assert_no_child_left()


# restart draws: (domain, draw, band, whether some path needs more than
# _ROUNDS rounds); a wide band redraws half the uniform disk points
RESTART_CASES = {
    "fixed": ("disk", lambda d: _kernels.fixed_draw(0.3, -0.2), 0.05, False),
    "circle": ("disk", lambda d: _kernels.circle_draw(0.5), 0.05, False),
    "uniform": ("disk", _kernels.uniform_draw, 0.3, True),
    "uniform-radial": ("disk", lambda d: _kernels.uniform_draw(
        d, _kernels.radial_ratio(np.linspace(1.0, 0.05, 65))), 0.05, True),
    "uniform-grid": ("rect", lambda d: _kernels.uniform_draw(
        d, _kernels.grid_ratio(np.linspace(0.05, 1.0, 35).reshape(7, 5))),
        0.05, True),
}


@pytest.mark.parametrize("name", sorted(RESTART_CASES))
def test_batched_restart_matches_one_round(name, walk_domains):
    where, make, btol, crosses = RESTART_CASES[name]
    domain = walk_domains[where][0]
    draw = make(domain)
    n = 300
    mask = np.arange(n) % 3 != 1                 # the paths that restart
    calls = []

    def counted(u):
        # one reference call is one round of every pending path
        calls.append(u.shape[1])
        return draw(u)

    counted.uniforms = draw.uniforms

    want = (derive_seeds(3, n), np.zeros(3, dtype=np.int64),
            np.full(n, np.nan), np.full(n, np.nan))
    got = tuple(a.copy() for a in want)
    one_round_restart(want[0], mask, counted, domain, btol, *want[1:])
    _kernels._np_restart(got[0], np.nonzero(mask)[0], draw, domain, btol,
                         *got[1:])
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
    assert np.isnan(got[2]).sum() == n - mask.sum()
    assert (len(calls) > _kernels._ROUNDS) == crosses


@pytest.mark.parametrize("batched", [False, True])
def test_batched_restart_floor_at_ten_thousand(batched, disk):
    # 16 paths that never accept reach 10^4 attempts in round 625, the first
    # of a batch of _ROUNDS, and raise there in either restart
    draw = _kernels.uniform_draw(disk, lambda u1, fx, fy: np.zeros(u1.size))
    n = 16
    restart, paths = one_round_restart, np.ones(n, dtype=bool)
    if batched:
        restart, paths = _kernels._np_restart, np.arange(n)
    with pytest.raises(RejectionEfficiencyError,
                       match="^rejection acceptance 0/10000 fell below 1%$"):
        restart(derive_seeds(5, n), paths, draw, disk, 0.05,
                np.zeros(3, dtype=np.int64), np.empty(n), np.empty(n))


@pytest.mark.slow
def test_dt_halving_consistency(disk_basis, uniform_disk):
    base = st.WalkConfig(step_dt=2e-4, n_steps=4000, n_paths=1500, seed=7,
                         n_bins=16)
    half = st.WalkConfig(step_dt=1e-4, n_steps=8000, n_paths=1500, seed=7,
                         n_bins=16)
    runs = [st.simulate_occupation(c, measures.UniformMeasure(), disk_basis)
            for c in (base, half)]
    preds = [st.stationary_prediction(uniform_disk, r) for r in runs]
    d = [st.compare_stationary(r, p) for r, p in zip(runs, preds)]
    # halving dt moves the distance by less than the statistical error bar
    assert abs(d[0] - d[1]) < 0.05

