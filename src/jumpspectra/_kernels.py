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
radii and angles (reused for the step midpoints) and positions; the first
three are also the scratch of the angle's cosine and sine.  A pass of m
steps over n paths writes into the first m x n of each, through ``out=``
and in-place ufuncs that keep the order of every float operation, so each
value keeps its bits.

A step is the Box-Muller pair ``r cos(2 pi u2), r sin(2 pi u2)`` (Box and
Muller, Ann. Math. Stat. 29, 1958), and the angle's cosine and sine come
from a table rather than from libm (Tang, ACM TOMS 17, 1991).  The table
holds cos and sin of ``2 pi h / 1024`` for h = 0 .. 1024: the first octant
from ``np.cos`` and ``np.sin``, the rest by symmetry, so the quarter turns
are exact.  For u in [0, 1], ``u * 1024`` splits exactly into its integer
part h and a fraction, whose angle ``delta`` is below 2 pi / 1024 < 0.0062;
``cos delta - 1`` to delta^6 and ``sin delta`` to delta^7 (the next terms
are below 1e-22) rotate the table entry.  Against exact values (mpmath, on
3,000 random dyadic u, the quarter turns and every node and its neighbours
1 ulp away) the error is at most 1.5e-16, where ``np.cos`` and ``np.sin``
of ``2 pi u`` are off by up to 6.8e-16, mostly from rounding the argument;
the two differ by at most 7.3e-16 over 2 x 10^6 dyadic u.  It costs under a
third of the two libm calls (about 10 against 33 ns a value), and the walk's
histograms keep their bits: a step moves by a few ulps, which flips a bin or
an exit only when a position lies that close to an edge.

The counters also let a restart draw several rejection rounds at once: round
j of a path's candidates takes its uniforms from ``state + j k gamma``, with
``k`` the uniforms one candidate takes.  Each path keeps its first accepted
candidate and advances its counter by the rounds it used, which gives the
bits, counters and counts of drawing one round at a time.

Since the streams are per path, the paths split into contiguous shards that
walk apart: one in the calling process and the others in children made by
``os.fork``, one shard per available CPU.  Each shard returns its histogram
and counters, which are summed, so the result has the same bits at any shard
count.

The domain object supplies the interior test, the uniform sampler and the
occupation cells.  The restart measure supplies a draw ``draw(u) -> (px, py,
placed)``, a pure map from uniforms to candidate restart points: ``u`` has
one column per candidate and ``draw.uniforms`` rows, the uniforms that one
candidate takes, and ``placed`` is the accept mask of a rejection sampler,
or None when every candidate stands.  Only this module advances a stream: a
restart makes every candidate's uniforms in one batch and hands them to the
draw.  A candidate in the boundary band is drawn again.  ``complex_normals``
serves the same streams to the resolvent's random probes, so no module needs
a second generator.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from itertools import accumulate

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
_NODES = 1024                # sincos table nodes per turn


def _turn_table():
    """cos and sin of ``2 pi h / _NODES`` for h = 0 .. _NODES: the first
    octant from ``np.cos`` and ``np.sin``, then a quarter turn by reflection
    about pi / 4 and the other three quarters by rotation."""
    a = 2.0 * math.pi / _NODES * np.arange(_NODES // 8 + 1)
    c, s = np.cos(a), np.sin(a)
    c, s = np.concatenate([c, s[-2::-1]]), np.concatenate([s, c[-2::-1]])
    return (np.concatenate([c, -s[1:], -c[1:], s[1:]]),
            np.concatenate([s, c[1:], -s[1:], -c[1:]]))


_COS_NODE, _SIN_NODE = _turn_table()


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


def _sincos_turns(u, cos, sin, work):
    """cos(2 pi u) and sin(2 pi u) for ``u`` in [0, 1], written to ``cos``
    and ``sin``; ``u`` is overwritten, and ``work`` holds three scratch
    arrays of its shape with 8-byte items (of any dtype)."""
    a, b = (w.view(np.float64) for w in work[:2])
    h = work[2].view(np.intp)
    u *= _NODES                               # exact, as is the split
    np.copyto(h, u, casting="unsafe")         # u >= 0: rounded down
    u -= h
    u *= 2.0 * math.pi / _NODES               # delta
    z = np.multiply(u, u, out=a)
    cm1 = np.multiply(z, -1.0 / 720, out=cos)   # cos delta - 1
    cm1 += 1.0 / 24
    cm1 *= z
    cm1 -= 0.5
    cm1 *= z
    sn = np.multiply(z, -1.0 / 5040, out=sin)   # sin delta
    sn += 1.0 / 120
    sn *= z
    sn -= 1.0 / 6
    sn *= z
    sn *= u
    sn += u
    # h is within the table; "clip" spares the buffered copy of "raise"
    ch = np.take(_COS_NODE, h, out=u, mode="clip")
    sh = np.take(_SIN_NODE, h, out=a, mode="clip")
    # cos = ch + (ch (cos delta - 1) - sh sin delta) and
    # sin = sh + (sh (cos delta - 1) + ch sin delta)
    np.multiply(sh, cm1, out=b)
    t = np.multiply(sh, sn, out=h.view(np.float64))
    sn *= ch
    sn += b
    sn += sh
    cm1 *= ch
    cm1 -= t
    cm1 += ch


def derive_seeds(seed: int, n_paths: int) -> np.ndarray:
    """Independent splitmix64 stream states, one per path."""
    root = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    s = root + np.arange(1, n_paths + 1, dtype=np.uint64) * _GOLDEN
    return _mix(s, np.empty_like(s))


def complex_normals(seed: int, n: int) -> np.ndarray:
    """``n`` complex numbers from the stream ``seed`` whose real and
    imaginary parts are independent standard normals.  Entry i is the
    Box-Muller pair ``r e^(2 pi i u2)``, ``r = sqrt(-2 log u1)``, of the
    uniforms of ``derive_seeds(seed, 2 n)`` states 2i + 1 (u1) and 2i + 2
    (u2), the radius then angle order of a walk step."""
    s = derive_seeds(seed, 2 * n)
    u = _unit(s, np.empty_like(s), np.empty(s.shape))
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = 2.0 * math.pi * u[1::2]
    return r * np.cos(angle) + 1j * (r * np.sin(angle))


def fixed_draw(x0, y0):
    """Restarts at the point (x0, y0); no uniform is drawn."""
    def draw(u):
        return np.full(u.shape[1], x0), np.full(u.shape[1], y0), None
    draw.uniforms = 0
    return draw


def circle_draw(r0):
    """Restarts uniform on the centred circle of radius r0: one uniform."""
    def draw(u):
        return (r0 * np.cos(2.0 * math.pi * u[0]),
                r0 * np.sin(2.0 * math.pi * u[0]), None)
    draw.uniforms = 1
    return draw


def uniform_draw(domain, ratio=None):
    """Restarts uniform over the domain from two uniforms.  With ``ratio``,
    a third uniform accepts the point with probability ``ratio(u1, fx, fy)``
    (``fx, fy`` its bounding-box fractions)."""
    def draw(u):
        px, py, fx, fy = domain.uniform_point(u[0], u[1])
        if ratio is None:
            return px, py, None
        return px, py, u[2] <= ratio(u[0], fx, fy)
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


def bilinear(table2d, fx, fy):
    """``table2d``, the values on a regular lattice over the bounding box
    (rows along x), bilinearly interpolated at the box fractions ``fx, fy``;
    a fraction outside [0, 1) is clamped to the lattice."""
    nx, ny = table2d.shape
    px = np.clip(fx * (nx - 1), 0, nx - 1 - 1e-12)
    py = np.clip(fy * (ny - 1), 0, ny - 1 - 1e-12)
    i = px.astype(int)
    j = py.astype(int)
    tx = px - i
    ty = py - j
    return ((1 - tx) * (1 - ty) * table2d[i, j]
            + tx * (1 - ty) * table2d[i + 1, j]
            + (1 - tx) * ty * table2d[i, j + 1]
            + tx * ty * table2d[i + 1, j + 1])


def grid_ratio(table2d):
    """Acceptance ratio of a uniform point: ``table2d`` over the bounding
    box fractions, bilinearly interpolated."""
    return lambda u1, fx, fy: bilinear(table2d, fx, fy)


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
    j take their uniforms from ``state + j k gamma``, where ``k`` is the
    count one candidate takes (``draw.uniforms``), and the i-th uniform of a
    candidate at ``c`` comes from ``c + i gamma``.  A path keeps its first
    candidate that is accepted and off the band, and its counter advances
    by the rounds it used, so the points, counters and counts are those of
    drawing one round at a time.  Attempts and accepts count the rounds
    used, and the acceptance floor is checked after each of them."""
    k = np.uint64(draw.uniforms)
    # j k gamma for j = 0 .. _ROUNDS and i gamma for i = 1 .. k, as arrays,
    # which wrap without a warning
    offset = np.arange(_ROUNDS + 1, dtype=np.uint64) * k * _GOLDEN
    steps = np.arange(1, k + 1, dtype=np.uint64) * _GOLDEN
    rounds = np.arange(_ROUNDS)[:, None]
    while idx.size:
        n = idx.size
        s = (state[idx] + offset[:_ROUNDS, None]).ravel() + steps[:, None]
        px, py, placed = draw(_unit(s, np.empty_like(s), np.empty(s.shape)))
        ok = ~domain.outside(px, py, btol)
        if placed is not None:
            ok &= placed
        first = np.where(ok.reshape(_ROUNDS, n), rounds, _ROUNDS).min(axis=0)
        used = np.minimum(first + 1, _ROUNDS)
        if placed is not None:
            live = rounds < used                  # still pending in round j
            # the running attempts and accepts as plain ints, before the
            # first round and after each
            tried = accumulate(live.sum(axis=1).tolist(),
                               initial=int(stats[1]))
            took = accumulate(
                (live & placed.reshape(_ROUNDS, n)).sum(axis=1).tolist(),
                initial=int(stats[2]))
            for attempts, accepts in zip(tried, took):
                if attempts >= _FLOOR_ATTEMPTS:
                    check_acceptance(attempts, accepts)
            stats[1], stats[2] = attempts, accepts
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
    rejection accepts; ``RejectionEfficiencyError`` is raised when the
    accepts fall below the floor.

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
    # a shard checks the floor itself only from _FLOOR_ATTEMPTS attempts on
    check_acceptance(int(stats[1]), int(stats[2]))
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
        X, Y = view(xs, m + 1, n), view(ys, m + 1, n)
        # cos and sin of 2 pi u2 first, while the radii are free scratch
        _unit(np.add(s, off_a[:m, None], out=u), tmp, ang)
        _sincos_turns(ang, X[1:], Y[1:], (r, u, tmp))
        # r = sqrt(-2 log u1), operation for operation
        _unit(np.add(s, off_r[:m, None], out=u), tmp, r)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        np.take(x, act, out=X[0])
        np.take(y, act, out=Y[0])
        # steps: step * (r * cos(2 pi u2)) and step * (r * sin(2 pi u2))
        for P in (X[1:], Y[1:]):
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
        # step midpoints, the exit step's included; the radii and angles
        # are spent
        bx, by = r, ang
        for B, P in ((bx, X), (by, Y)):
            np.add(P[:-1], P[1:], out=B)
            B *= 0.5
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
