"""Restart-diffusion walk kernel with occupation binning.

One numpy engine advances the paths a block of steps at a time.  Each path
owns a splitmix64 stream, which is counter based: the state after k draws is
``seed + k * gamma`` (mod 2**64), so the uniforms a path needs for a whole
block come from one broadcast addition followed by the mix (Salmon et al.,
SC'11, "Parallel random numbers: as easy as 1, 2, 3").  A path's draws thus
depend only on its own count, and each path keeps its own step clock: every
pass advances each unfinished path up to a block of steps from where it
stands.  Positions within a pass are running sums over the steps, which add
left to right, so each equals the per-step update ``x + step * z`` bit for
bit.  One reduction finds each path's first exit; a path that exits at row f
advances its counter by f + 1 steps, restarts from the measure and walks on
in the next pass.  The histogram counts are integers, so the histogram and
the counters are bitwise identical to those of a per-step loop over all
paths, whatever the block size.

A shard allocates its pass buffers once: counter states, a shift temporary,
radii and angles (reused for the step midpoints) and positions.  A pass of
m steps over n paths writes into the first m x n of each, through ``out=``
and in-place ufuncs that keep the order of every float operation, so each
value keeps its bits.

The counters also let a restart draw several rejection rounds at once: round
j of a path's candidates takes its uniforms from ``state + j u gamma``, with
``u`` the uniforms one candidate takes.  Each path keeps its first accepted
candidate and advances its counter by the rounds it used, which gives the
bits, counters and counts of drawing one round at a time.

Since the streams are per path, the paths split into contiguous shards that
walk apart: one in the calling process and the others in children made by
``os.fork``, one shard per available CPU.  Each shard returns its histogram
and counters, which are summed, so the result has the same bits at any shard
count.

The domain object supplies the interior test, the uniform sampler and the
occupation cells.  The restart measure supplies a draw ``draw(state, idx) ->
(px, py, placed)``: candidate restart points for the paths ``idx``, taking
their uniforms from ``state``, and the accept mask of a rejection sampler,
or None when every candidate stands.  A candidate in the boundary band is
drawn again.  ``draw.uniforms`` is the number of uniforms one candidate
takes from its stream.
"""

from __future__ import annotations

import math
import os
import pickle
import signal

import numpy as np

from .errors import RejectionEfficiencyError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_ONE = np.uint64(1)
_U53 = 2.0 ** -53

_BLOCK = 64                  # steps per block
# At most this many steps x paths per block.  The shard's buffers are made
# once, but the interior test, the binning and the exit search still make
# their temporaries every pass; at 1 << 14 these (at most 128 KB) stay under
# glibc's default mmap threshold and come from the heap, while at 1 << 16
# they are mapped and faulted in afresh and the seed-1 disk walk makes
# several times the minor page faults for no clear gain in time.
_BLOCK_CELLS = 1 << 14
_SHARD_CELLS = 1 << 20       # fewest steps x paths worth a fork (about 7 ms)
_MIN_ACCEPTANCE = 0.01       # floor on rejection accepts / attempts
_FLOOR_ATTEMPTS = 10_000     # attempts a shard makes before the floor applies
_ROUNDS = 4                  # rejection rounds drawn at once per pending path


def _mix(s, tmp):
    """splitmix64's output mix of the states ``s``, in place; ``tmp`` is a
    temporary of the same shape."""
    for shift, factor in ((_S30, _MIX1), (_S27, _MIX2)):
        np.right_shift(s, shift, out=tmp)
        s ^= tmp
        s *= factor
    np.right_shift(s, _S31, out=tmp)
    s ^= tmp
    return s


def _unit(s, tmp, out):
    """Uniforms on (0, 1] from advanced splitmix64 states ``s``, written to
    ``out``; ``s`` and ``tmp`` are overwritten."""
    _mix(s, tmp)
    s >>= _S11
    s += _ONE
    return np.multiply(s, _U53, out=out)


def _running_sum(P):
    """Running sums down axis 0, in place and added left to right, which
    gives the bits of ``np.cumsum``.  ``np.cumsum`` makes one inner-loop call
    per column and a row loop one ufunc call per row, which costs about as
    much as eight column calls."""
    if P.shape[1] > 8 * P.shape[0]:
        for i in range(1, P.shape[0]):
            P[i] += P[i - 1]
    else:
        np.cumsum(P, axis=0, out=P)


def derive_seeds(seed: int, n_paths: int) -> np.ndarray:
    """Independent splitmix64 stream states, one per path."""
    root = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    s = root + np.arange(1, n_paths + 1, dtype=np.uint64) * _GOLDEN
    return _mix(s, np.empty_like(s))


def _np_uniform(state, idx):
    state[idx] += _GOLDEN
    s = state[idx]
    return _unit(s, np.empty_like(s), np.empty(s.shape))


def fixed_draw(x0, y0):
    """Restarts at the point (x0, y0); no uniform is drawn."""
    def draw(state, idx):
        return np.full(idx.size, x0), np.full(idx.size, y0), None
    draw.uniforms = 0
    return draw


def circle_draw(r0):
    """Restarts uniform on the centred circle of radius r0: one uniform."""
    def draw(state, idx):
        u1 = _np_uniform(state, idx)
        return (r0 * np.cos(2.0 * math.pi * u1),
                r0 * np.sin(2.0 * math.pi * u1), None)
    draw.uniforms = 1
    return draw


def uniform_draw(domain, ratio=None):
    """Restarts uniform over the domain from two uniforms.  With ``ratio``,
    a third uniform accepts the point with probability ``ratio(u1, fx, fy)``
    (``fx, fy`` its bounding-box fractions)."""
    def draw(state, idx):
        u1 = _np_uniform(state, idx)
        u2 = _np_uniform(state, idx)
        px, py, fx, fy = domain.uniform_point(u1, u2)
        if ratio is None:
            return px, py, None
        u3 = _np_uniform(state, idx)
        return px, py, u3 <= ratio(u1, fx, fy)
    draw.uniforms = 2 if ratio is None else 3
    return draw


def radial_ratio(table):
    """Acceptance ratio of a uniform disk point: ``table`` over the radius
    sqrt(u1) in [0, 1], linearly interpolated."""
    def ratio(u1, fx, fy):
        pos = np.sqrt(u1) * (table.size - 1)
        i = np.minimum(pos.astype(int), table.size - 2)
        frac = pos - i
        return table[i] * (1 - frac) + table[i + 1] * frac
    return ratio


def grid_ratio(table2d):
    """Acceptance ratio of a uniform point: ``table2d`` over the bounding
    box fractions, bilinearly interpolated."""
    nx, ny = table2d.shape

    def ratio(u1, fx, fy):
        px = fx * (nx - 1)
        py = fy * (ny - 1)
        i = np.minimum(px.astype(int), nx - 2)
        j = np.minimum(py.astype(int), ny - 2)
        tx = px - i
        ty = py - j
        return (table2d[i, j] * (1 - tx) * (1 - ty)
                + table2d[i + 1, j] * tx * (1 - ty)
                + table2d[i, j + 1] * (1 - tx) * ty
                + table2d[i + 1, j + 1] * tx * ty)
    return ratio


def check_acceptance(attempts, accepts):
    """Raise ``RejectionEfficiencyError`` when the rejection sampler accepted
    fewer than ``_MIN_ACCEPTANCE`` of its attempts."""
    if attempts > 0 and accepts < _MIN_ACCEPTANCE * attempts:
        raise RejectionEfficiencyError(
            f"rejection acceptance {accepts}/{attempts} fell below "
            f"{_MIN_ACCEPTANCE:.0%}")


def _np_restart(state, idx, draw, domain, btol, stats, x, y):
    """Restart the paths ``idx`` from ``draw``, advancing their counters.

    Every pending path draws ``_ROUNDS`` candidates at once; those of round
    j take their uniforms from ``state + j u gamma``, where ``u`` is the
    count one candidate takes (``draw.uniforms``).  A path keeps its first
    candidate that is accepted and off the band, and its counter advances
    by the rounds it used, so the points, counters and counts are those of
    drawing one round at a time.  Attempts and accepts count the rounds
    used, and the acceptance floor is checked after each of them."""
    # j u gamma for j = 0 .. _ROUNDS, as arrays, which wrap without a warning
    offset = np.arange(_ROUNDS + 1, dtype=np.uint64) * (
        np.array([draw.uniforms], dtype=np.uint64) * _GOLDEN)
    rounds = np.arange(_ROUNDS)[:, None]
    while idx.size:
        n = idx.size
        cand = (state[idx] + offset[:_ROUNDS, None]).ravel()
        px, py, placed = draw(cand, np.arange(cand.size))
        ok = ~domain.outside(px, py, btol)
        if placed is not None:
            ok &= placed
        first = np.where(ok.reshape(_ROUNDS, n), rounds, _ROUNDS).min(axis=0)
        used = np.minimum(first + 1, _ROUNDS)
        if placed is not None:
            live = rounds < used                  # still pending in round j
            tried = live.sum(axis=1).tolist()
            took = (live & placed.reshape(_ROUNDS, n)).sum(axis=1).tolist()
            for attempts, accepts in zip(tried, took):
                stats[1] += attempts
                stats[2] += accepts
                if stats[1] >= _FLOOR_ATTEMPTS:
                    check_acceptance(int(stats[1]), int(stats[2]))
        state[idx] += offset[used]
        hit = np.nonzero(first < _ROUNDS)[0]
        at = first[hit] * n + hit
        x[idx[hit]] = px[at]
        y[idx[hit]] = py[at]
        idx = idx[first == _ROUNDS]


def _shard_count(n_paths, n_steps):
    """Shards for a walk: one per CPU this process may run on, fewer when a
    shard would walk fewer than ``_SHARD_CELLS`` steps x paths."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else 1
    return max(1, min(cpus, n_paths, n_paths * n_steps // _SHARD_CELLS))


def _fork(fn):
    """Run ``fn()`` in a forked child; returns its pid and the read end of a
    pipe that carries the pickled ``(ok, result or exception)``.  The child
    always leaves by ``os._exit``, so no exit handler runs and no inherited
    stdio buffer is flushed a second time."""
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    status = 1
    try:
        os.close(r)
        try:
            outcome = (True, fn())
        except BaseException as exc:
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception:                       # an exception that won't pickle
            exc = outcome[1]
            data = pickle.dumps((False, RuntimeError(
                f"{type(exc).__name__}: {exc}")))
        with os.fdopen(w, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _outcome(shard, status, data):
    """The result a child shard sent, or its failure raised."""
    if os.WIFSIGNALED(status):
        raise RuntimeError(f"walk shard {shard} was killed by signal "
                           f"{os.WTERMSIG(status)}")
    if not data:
        raise RuntimeError(f"walk shard {shard} exited with status "
                           f"{os.waitstatus_to_exitcode(status)} and no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def run_walk(seeds, n_steps, dt, btol, domain, draw, n_bins):
    """Walk every path ``n_steps`` steps from ``draw``, the restart
    measure's draw; returns (hist, None, stats).

    The histogram counts the domain's occupation cells for ``n_bins``, and
    ``stats`` holds the restart count, the rejection attempts and the
    rejection accepts.

    The paths are split into contiguous shards (``_shard_count``); shard 0
    walks here and each other shard in a forked child, which inherits
    ``draw`` and ``domain`` and pickles its result back.  A failure in a
    child is raised here; on any failure every child is killed and reaped.
    """
    n_paths = seeds.size
    n_shards = _shard_count(n_paths, n_steps)
    cut = [n_paths * i // n_shards for i in range(n_shards + 1)]

    def shard(i):
        return _walk_shard(seeds[cut[i]:cut[i + 1]], n_steps, dt, btol,
                           domain, draw, n_bins)

    children = []
    try:
        for i in range(1, n_shards):
            children.append(_fork(lambda i=i: shard(i)))
        parts = [shard(0)]
        for i, (pid, pipe) in enumerate(children, 1):
            with pipe:
                data = pipe.read()        # to EOF first: payloads outgrow a pipe
            parts.append(_outcome(i, os.waitpid(pid, 0)[1], data))
    finally:
        for pid, pipe in children:
            pipe.close()
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:     # reaped above
                pass

    hist, stats = map(sum, zip(*parts))
    # the middle slot stays: perfbench/tracer.py reads stats as out[2]
    # (ROADMAP G)
    return hist, None, stats


def _walk_shard(seeds, n_steps, dt, btol, domain, draw, n_bins):
    """The walk of the paths ``seeds``; returns (hist, stats).  A pass
    advances every unfinished path up to ``block`` steps on its own clock; a
    path that exits at row f uses f + 1 of them and restarts."""
    n_paths = seeds.size
    hist = np.zeros(domain.cell_areas(n_bins).size, dtype=np.int64)
    stats = np.zeros(3, dtype=np.int64)
    step = math.sqrt(2.0 * dt)
    state = seeds.copy()
    x = np.empty(n_paths)
    y = np.empty(n_paths)
    _np_restart(state, np.arange(n_paths), draw, domain, btol, stats, x, y)

    block = max(1, min(_BLOCK, _BLOCK_CELLS // max(n_paths, 1)))
    # the draws of step i are 2i + 1 (radius) and 2i + 2 (angle)
    offsets = np.arange(1, 2 * block + 1, dtype=np.uint64) * _GOLDEN
    off_r, off_a = offsets[0::2].copy(), offsets[1::2].copy()
    # the workspace: a pass of m steps over n paths writes the first m x n
    # (positions: (m + 1) x n) of each buffer, viewed as a C array
    size = block * n_paths
    counters = np.empty(size, dtype=np.uint64)
    shifted = np.empty(size, dtype=np.uint64)
    radii = np.empty(size)                       # then the x midpoints
    angles = np.empty(size)                      # then the y midpoints
    xs = np.empty(size + n_paths)
    ys = np.empty(size + n_paths)

    def view(buf, m, n):
        return buf[:m * n].reshape(m, n)

    clock = np.zeros(n_paths, dtype=np.intp)     # steps each path has walked
    act = np.arange(n_paths)                     # paths short of n_steps
    while act.size:
        rem = np.minimum(n_steps - clock[act], block)
        m = int(rem.max())
        n = act.size
        s = state[act]
        u, tmp = view(counters, m, n), view(shifted, m, n)
        r, ang = view(radii, m, n), view(angles, m, n)
        # r = sqrt(-2 log u1) and ang = 2 pi u2, operation for operation
        _unit(np.add(s, off_r[:m, None], out=u), tmp, r)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        _unit(np.add(s, off_a[:m, None], out=u), tmp, ang)
        ang *= 2.0 * math.pi
        X, Y = view(xs, m + 1, n), view(ys, m + 1, n)
        np.take(x, act, out=X[0])
        np.take(y, act, out=Y[0])
        # steps: step * (r * cos(ang)) and step * (r * sin(ang))
        for P, trig in ((X[1:], np.cos), (Y[1:], np.sin)):
            trig(ang, out=P)
            P *= r
            P *= step
        _running_sum(X)
        _running_sum(Y)
        rows = np.arange(m)[:, None]
        out = domain.outside(X[1:], Y[1:], btol)
        if rem.min() < m:
            out &= rows < rem
        first = np.where(out, rows, m).min(axis=0)
        hit = first < m
        used = np.where(hit, first + 1, rem)       # steps this pass consumed
        live = rows < used
        hc = np.nonzero(hit)[0]
        # step midpoints, or the old position on the exit step; the radii
        # and angles are spent
        bx, by = r, ang
        for B, P in ((bx, X), (by, Y)):
            np.add(P[:-1], P[1:], out=B)
            B *= 0.5
        bx[first[hc], hc] = X[first[hc], hc]
        by[first[hc], hc] = Y[first[hc], hc]
        # rows past an exit go to the dropped cell hist.size
        cells = np.where(live, domain.bin_index(bx, by, n_bins), hist.size)
        hist += np.bincount(cells.ravel(), minlength=hist.size + 1)[:-1]
        # exited paths get their restart point below
        cols = np.arange(n)
        x[act], y[act] = X[used, cols], Y[used, cols]
        state[act] += (2 * used).astype(np.uint64) * _GOLDEN
        gone = act[hc]
        _np_restart(state, gone, draw, domain, btol, stats, x, y)
        stats[0] += gone.size
        clock[act] += used
        act = act[clock[act] < n_steps]

    return hist, stats
