"""Restart-diffusion walk kernel with occupation binning.

One numpy engine advances every path a block of steps at a time.  Each path
owns a splitmix64 stream, which is counter based: the state after k draws is
``seed + k * gamma`` (mod 2**64), so the uniforms a path needs for a whole
block come from one broadcast addition followed by the mix (Salmon et al.,
SC'11, "Parallel random numbers: as easy as 1, 2, 3").  Positions within a
block are running sums over the steps, which add left to right, so each
equals the per-step update ``x + step * z`` bit for bit.  One reduction over
the block finds each path's first exit; only exited paths advance their
counters to the exit, restart from the measure and finish the block in a
shrinking inner pass.  Histogram and region counts are integers and the
restart samples are sorted into (step, path) order, so the histogram, the
region counts, the samples and the counters are bitwise identical to those
of a per-step loop over all paths, whatever the block size.

Since the streams are per path, the paths split into contiguous shards that
walk apart: one in the calling process and the others in children made by
``os.fork``, one shard per available CPU.  Histograms, region counts and
counters are summed and the restart samples sorted once, so the result has
the same bits at any shard count.

The domain object supplies the interior test, the uniform sampler and the
occupation cells.  The restart measure supplies a draw ``draw(state, idx) ->
(px, py, placed)``: candidate restart points for the paths ``idx``, taking
their uniforms from ``state``, and the accept mask of a rejection sampler,
or None when every candidate stands.  A candidate in the boundary band is
drawn again.
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
# At most this many steps x paths per block.  A block's float64 arrays
# (128 KB) then stay near glibc's default mmap threshold, so most are reused
# from the heap instead of mapped and faulted in afresh every block; at
# 1 << 16 the seed-1 disk walk took about 2.5 times the minor page faults.
_BLOCK_CELLS = 1 << 14
_SHARD_CELLS = 1 << 20       # fewest steps x paths worth a fork (about 7 ms)
_MIN_ACCEPTANCE = 0.01       # floor on rejection accepts / attempts
_FLOOR_ATTEMPTS = 10_000     # attempts a shard makes before the floor applies


def _mix(s):
    z = (s ^ (s >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def _unit(s):
    """Uniform on (0, 1] from advanced splitmix64 states."""
    return ((_mix(s) >> _S11) + _ONE).astype(np.float64) * _U53


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
    return _mix(root + np.arange(1, n_paths + 1, dtype=np.uint64) * _GOLDEN)


def _np_uniform(state, idx):
    state[idx] += _GOLDEN
    return _unit(state[idx])


def fixed_draw(x0, y0):
    """Restarts at the point (x0, y0); no uniform is drawn."""
    def draw(state, idx):
        return np.full(idx.size, x0), np.full(idx.size, y0), None
    return draw


def circle_draw(r0):
    """Restarts uniform on the centred circle of radius r0: one uniform."""
    def draw(state, idx):
        u1 = _np_uniform(state, idx)
        return (r0 * np.cos(2.0 * math.pi * u1),
                r0 * np.sin(2.0 * math.pi * u1), None)
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


def _np_restart(state, mask, draw, domain, btol, stats, x, y):
    pending = mask.copy()
    while np.any(pending):
        idx = np.nonzero(pending)[0]
        px, py, placed = draw(state, idx)
        ok = ~domain.outside(px, py, btol)
        if placed is not None:
            stats[1] += idx.size
            stats[2] += int(np.sum(placed))
            if stats[1] >= _FLOOR_ATTEMPTS:
                check_acceptance(int(stats[1]), int(stats[2]))
            ok &= placed
        done = idx[ok]
        x[done] = px[ok]
        y[done] = py[ok]
        pending[done] = False


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


def run_walk(seeds, n_steps, dt, btol, domain, draw, n_bins, restart_cap,
             start=None, region=None):
    """Walk every path ``n_steps`` steps; returns (hist, samples, stats,
    inside).

    ``samples`` holds the first ``restart_cap`` restart points in (step,
    path) order, and ``stats`` the restart count, the rejection attempts and
    the rejection accepts.  The histogram counts the domain's occupation
    cells for ``n_bins``; ``n_bins = 0`` skips the binning.  Paths start from
    ``draw``, the restart measure's draw, or from the ``start = (x, y)``
    arrays when given.  ``inside[t]`` counts the paths whose position at the
    end of step t, restarts applied, satisfies ``region(px, py)``; it is
    empty when ``region`` is None.

    The paths are split into contiguous shards (``_shard_count``); shard 0
    walks here and each other shard in a forked child, which inherits
    ``draw``, ``domain`` and ``region`` and pickles its result back.  A
    failure in a child is raised here; on any failure every child is killed
    and reaped.
    """
    n_paths = seeds.size
    n_shards = _shard_count(n_paths, n_steps)
    cut = [n_paths * i // n_shards for i in range(n_shards + 1)]

    def shard(i):
        paths = slice(cut[i], cut[i + 1])
        begin = None if start is None else (np.asarray(start[0])[paths],
                                            np.asarray(start[1])[paths])
        return _walk_shard(seeds[paths], n_steps, dt, btol, domain, draw,
                           n_bins, restart_cap, begin, region)

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

    hist, stats, inside = (sum(p[k] for p in parts) for k in (0, 4, 5))
    points, steps, paths = (np.concatenate(v) for v in zip(
        *((p[1], p[2], p[3] + lo) for p, lo in zip(parts, cut))))
    order = np.lexsort((paths, steps))[:restart_cap]
    return hist, points[order], stats, inside


def _walk_shard(seeds, n_steps, dt, btol, domain, draw, n_bins, restart_cap,
                start, region):
    """The walk of the paths ``seeds``; returns (hist, restart points, their
    steps, their paths, stats, inside).  The restarts, unsorted, are those
    of the blocks up to the one that reaches ``restart_cap`` restarts, which
    hold the first ``restart_cap`` of them; paths count from the first of
    ``seeds``."""
    n_paths = seeds.size
    hist = np.zeros(domain.n_cells(n_bins), dtype=np.int64)
    stats = np.zeros(3, dtype=np.int64)
    inside = np.zeros(0 if region is None else n_steps, dtype=np.int64)
    # (steps, paths, x, y) of kept restarts, from an empty entry
    events = [(np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0),) * 2]
    step = math.sqrt(2.0 * dt)
    state = seeds.copy()

    def restart(paths):
        mask = np.zeros(n_paths, dtype=bool)
        mask[paths] = True
        _np_restart(state, mask, draw, domain, btol, stats, x, y)

    if start is None:
        x = np.empty(n_paths)
        y = np.empty(n_paths)
        restart(np.arange(n_paths))
    else:
        x = np.array(start[0], dtype=float)
        y = np.array(start[1], dtype=float)

    block = max(1, min(_BLOCK, _BLOCK_CELLS // max(n_paths, 1)))
    # the draws of step i are 2i + 1 (radius) and 2i + 2 (angle)
    offsets = np.arange(1, 2 * block + 1, dtype=np.uint64) * _GOLDEN
    off_r, off_a = offsets[0::2].copy(), offsets[1::2].copy()
    for t0 in range(0, n_steps, block):
        k = min(block, n_steps - t0)
        keep = stats[0] < restart_cap            # block not past the cap
        act = np.arange(n_paths)                 # paths still in the block
        beg = np.zeros(n_paths, dtype=np.intp)   # their block-local step
        whole = True                             # all paths from step 0
        while act.size:
            rem = k - beg
            m = int(rem.max())
            sel = slice(None) if whole else act
            s = state[sel]
            r = np.sqrt(-2.0 * np.log(_unit(s + off_r[:m, None])))
            ang = 2.0 * math.pi * _unit(s + off_a[:m, None])
            X = np.empty((m + 1, act.size))
            Y = np.empty((m + 1, act.size))
            X[0] = x[sel]
            Y[0] = y[sel]
            X[1:] = step * (r * np.cos(ang))
            Y[1:] = step * (r * np.sin(ang))
            _running_sum(X)
            _running_sum(Y)
            rows = np.arange(m)[:, None]
            out = domain.outside(X[1:], Y[1:], btol)
            if rem.min() < m:
                out &= rows < rem
            first = np.where(out, rows, m).min(axis=0)
            hit = first < m
            used = np.where(hit, first + 1, rem)   # steps this pass consumed
            live = rows < used
            hc = np.nonzero(hit)[0]
            if hist.size:
                # step midpoints, or the old position on the exit step
                bx = 0.5 * (X[:-1] + X[1:])
                by = 0.5 * (Y[:-1] + Y[1:])
                bx[first[hc], hc] = X[first[hc], hc]
                by[first[hc], hc] = Y[first[hc], hc]
                # rows past an exit go to the dropped cell hist.size
                cells = np.where(live, domain.bin_index(bx, by, n_bins),
                                 hist.size)
                hist += np.bincount(cells.ravel(),
                                    minlength=hist.size + 1)[:-1]
            if whole:
                # exited paths get their restart point below
                x[:], y[:] = X[m], Y[m]
            else:
                cols = np.arange(act.size)
                x[act], y[act] = X[used, cols], Y[used, cols]
            state[sel] += (2 * used).astype(np.uint64) * _GOLDEN
            gone = act[hc]
            restart(gone)
            at = beg[hc] + first[hc]
            stats[0] += at.size
            if keep:
                events.append((t0 + at, gone, x[gone], y[gone]))
            if region is not None:
                # an exit step ends at the restart point
                X[first[hc] + 1, hc] = x[gone]
                Y[first[hc] + 1, hc] = y[gone]
                ends = (beg + rows)[live & region(X[1:], Y[1:])]
                inside[t0:t0 + k] += np.bincount(ends, minlength=k)
            more = at + 1 < k
            act, beg, whole = gone[more], at[more] + 1, False

    steps, paths, rx, ry = (np.concatenate(v) for v in zip(*events))
    return hist, np.column_stack((rx, ry)), steps, paths, stats, inside
