"""Harmonic-measure estimates from sampled paths.

`harmonic_measure_estimate` is the one path sampler: it splits the paths
into fixed-size blocks keyed by (seed, block); each block simulates its
paths with a NumPy array kernel (free, wreath or Z) and reports integer
cell counts.  Integer aggregation is order-independent, so estimates are
identical for any worker count and bit-identical for a fixed seed.  With
workers > 1 the blocks run on forked worker processes, at most one per
block; one worker runs them in the calling process.

A block's steps are the ones `Generator.choice(len(probs), size=(paths,
horizon), p=probs)` draws from its Philox stream, read from the raw uint64
stream with exact integer limits: `random()` is (x >> 11) * 2**-53, so a
draw passes a CDF value c exactly when x >= ceil(c * 2**53) << 11.  The
raw draws are converted DRAW_CHUNK paths at a time and written transposed
into time-major (horizon, paths) step arrays, so no block-sized array of
floats or raw draws exists.

Convergence bookkeeping follows the walk instead of storing full
histories: a free walker's depth-D prefix can only change while its
reduced word is shorter than D+1 letters, so tracking the last step at
which the length dipped that low tells us how long the prefix has been
frozen.  The wreath walker similarly tracks its last visit to the lamp
window that the boundary bins can see.
"""

from __future__ import annotations

import multiprocessing as mp
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np

from .errors import SamplingError, UnsupportedGroupError
from .groups import GroupModel, _row_runs
from .measures import MeasureModel
from .rng import block_bounds, block_count, block_rng
from .walks import WalkSpec

STABLE_STEPS = 50
ESCAPE_SLACK = 20
WREATH_WINDOW_STORE = 5  # wreath bins hold the lamps on [-5, 5]
MAX_NONCONVERGED = 0.01


# -- vectorized estimators ----------------------------------------------------
#
# Each block kernel is `kernel(<step table>, <walk params>, n_samples,
# horizon, seed, block)` and returns (cell counts, failures).  Steps are kept
# time-major, shape (horizon, paths), so one step of every path reads one
# contiguous row.  A path is retired, and skipped by the remaining steps, as
# soon as the steps left cannot change its cell or its verdict; the free and
# wreath `_paths` functions return the per-path state this leaves, with the
# step at which each path stopped.

RETIRE_EVERY = 8
COUNTED_DRAWS = 32  # longest step table drawn by counting, not search
DRAW_CHUNK = 512    # paths converted from raw draws at a time


def _time_major_steps(rng: np.random.Generator, probs: np.ndarray, tables,
                      n_paths: int, horizon: int) -> list:
    """[table[d].T for table in tables], each a contiguous (horizon,
    n_paths) array, for the step indices d that `rng.choice(len(probs),
    size=(n_paths, horizon), p=probs)` draws.

    `choice` takes d as the number of normalised CDF values <= u, one
    uniform u per draw; here d is the number of integer limits <= the raw
    x behind u (see the module docstring), and a CDF value of 1.0, which u
    never reaches, has none.  For a short table each value is summed from
    one comparison pass per limit: table[0] plus table[i + 1] - table[i]
    for every limit passed, in the table's dtype, which wraps back to
    table[d].  The raw draws are read DRAW_CHUNK paths at a time, in the
    row-major order of `choice`.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    limits = np.ceil(cdf * 2.0**53)
    limits = limits[limits < 2.0**53].astype(np.uint64) << np.uint64(11)
    rises = [np.diff(t) for t in tables]
    outs = [np.empty((horizon, n_paths), dtype=t.dtype) for t in tables]
    for lo in range(0, n_paths, DRAW_CHUNK):
        hi = min(n_paths, lo + DRAW_CHUNK)
        x = rng.bit_generator.random_raw((hi - lo) * horizon).reshape(
            hi - lo, horizon)
        if len(probs) > COUNTED_DRAWS:
            d = limits.searchsorted(x, side="right")
            vals = [t[d] for t in tables]
        else:
            vals = [np.full(x.shape, t[0], dtype=t.dtype) for t in tables]
            for i, c in enumerate(limits):
                hit = x >= c
                for v, rise in zip(vals, rises):
                    v += hit * rise[i]
        for out, v in zip(outs, vals):
            out[:, lo:hi] = v.T
    return outs


def _row_counts(rows: np.ndarray, cell) -> Counter:
    """{cell(row): count} over the distinct rows (as lists), in
    lexicographic row order: the runs of `_row_runs` on the reversed
    columns, much faster than `np.unique`'s sort of structured rows."""
    counts = Counter()
    if rows.size:
        order, first = _row_runs(rows[:, ::-1])
        starts = np.flatnonzero(first)
        for row, c in zip(rows[order[starts]].tolist(),
                          np.diff(starts, append=len(rows)).tolist()):
            counts[cell(row)] = c
    return counts


def _free_letter_steps(w: WalkSpec):
    """(letter codes, probabilities) when every step is a single letter."""
    letters, probs = [], []
    for s, p in w.steps:
        if len(s.data) != 1:
            return None
        letters.append(s.data[0])
        probs.append(p)
    return np.array(letters, dtype=np.int8), np.array(probs)


def _free_paths(letters, probs, depth: int, n_samples: int, horizon: int,
                seed: int, block: int):
    """Per-path state of one free block: (words, length, peak, last_touch,
    stop).

    Row r's reduced word at step stop[r] is words[r, 1:length[r] + 1], and
    peak[r] is its largest length up to then.  last_touch[r] is the last
    step at which the length was <= depth.  A path stops early once its
    length exceeds depth by more than the steps left and its peak exceeds
    depth + ESCAPE_SLACK: its first depth letters, last_touch and verdict
    are then final.
    """
    lo, hi = block_bounds(block, n_samples)
    nb = hi - lo
    steps, = _time_major_steps(block_rng(seed, block), probs, [letters], nb,
                               horizon)
    # Words live in one flat int8 buffer, row r at [r * width, (r+1) * width).
    # Column 0 holds 0, the inverse of no letter, so the empty word never
    # cancels; `top` is the flat index of each word's last letter.
    width = horizon + 2
    words = np.zeros(nb * width, dtype=np.int8)
    length = np.zeros(nb, dtype=np.intp)
    peak = np.zeros(nb, dtype=np.intp)
    last_touch = np.zeros(nb, dtype=np.intp)
    stop = np.full(nb, horizon - 1, dtype=np.intp)
    act = np.arange(nb)
    top = act * width
    floor = top + depth          # top <= floor: length <= depth
    high = top.copy()            # running maximum of top
    last = np.zeros(nb, dtype=np.intp)
    above = words[1:]            # above[top]: the slot above each top

    def settle(sel, t):
        rows = act[sel]
        length[rows] = top[sel] - floor[sel] + depth
        peak[rows] = high[sel] - floor[sel] + depth
        last_touch[rows] = last[sel]
        stop[rows] = t

    for t in range(horizon):
        s = steps[t] if len(act) == nb else steps[t].take(act)
        back = words[top] + s == 0
        # a push writes s above the top; a cancel leaves it above the new
        # top, where the next push overwrites it before anything reads it
        above[top] = s
        top += 1
        top -= back.view(np.int8) << 1
        np.maximum(high, top, out=high)
        last[top <= floor] = t
        if t % RETIRE_EVERY == RETIRE_EVERY - 1:
            done = ((top > floor + (horizon - 1 - t))
                    & (high > floor + ESCAPE_SLACK))
            if done.any():
                settle(done, t)
                keep = ~done
                act, top, floor, high, last = (
                    act[keep], top[keep], floor[keep], high[keep], last[keep])
                if not len(act):
                    break
    settle(slice(None), horizon - 1)
    return words.reshape(nb, width), length, peak, last_touch, stop


def _free_block(letters, probs, depth: int, n_samples: int, horizon: int,
                seed: int, block: int):
    words, length, peak, last_touch, _ = _free_paths(
        letters, probs, depth, n_samples, horizon, seed, block)
    ok = ((peak > depth + ESCAPE_SLACK)
          & (horizon - 1 - last_touch >= STABLE_STEPS)
          & (length > depth))
    counts = _row_counts(words[ok, 1:depth + 1], tuple)
    return counts, int(len(ok) - int(ok.sum()))


def _wreath_steps(w: WalkSpec):
    """(translation, lamp increment, probability) arrays when every step
    is a lamp increment at the origin or a unit translation."""
    moves = []
    for s, _ in w.steps:
        lamps, pos = s.data
        if pos == 0 and len(lamps) == 1 and lamps[0][0] == 0:
            moves.append((0, lamps[0][1]))
        elif pos in (1, -1) and not lamps:
            moves.append((pos, 0))
        else:
            return None
    shift, inc = zip(*moves)
    return (np.array(shift, dtype=np.int8), np.array(inc, dtype=np.int16),
            np.array([p for _, p in w.steps]))


def _wreath_paths(shift, inc, probs, q: int, n_samples: int, horizon: int,
                  seed: int, block: int):
    """Per-path state of one wreath block: (lamps, pos, last_touch, stop).

    lamps[r] holds the lamps on [-W, W] (W = WREATH_WINDOW_STORE) and pos[r]
    the position at step stop[r]; last_touch[r] is the last step that ended
    in the window.  A path stops early once |pos| - (steps left) >=
    W + 3: it can no longer reach the window, so its lamps, last_touch and
    verdict are final.
    """
    lo, hi = block_bounds(block, n_samples)
    nb = hi - lo
    shifts, incs = _time_major_steps(block_rng(seed, block), probs,
                                     [shift, inc], nb, horizon)
    W = WREATH_WINDOW_STORE
    # Row r's lamps are lamps[r * width: r * width + 2W + 1], window column
    # c = pos + W; column 2W + 1 takes the increments made outside the
    # window and is never read.  Increments are summed and reduced mod q
    # once at the end.
    width = 2 * W + 2
    out = np.uint64(width - 1)
    lamps = np.zeros(nb * width, dtype=np.int64)
    pos = np.zeros(nb, dtype=np.intp)
    last_touch = np.zeros(nb, dtype=np.intp)
    stop = np.full(nb, horizon - 1, dtype=np.intp)
    act = np.arange(nb)
    base = act * width
    col = np.full(nb, W, dtype=np.intp)
    last = np.zeros(nb, dtype=np.intp)

    def settle(sel, t):
        rows = act[sel]
        pos[rows] = col[sel] - W
        last_touch[rows] = last[sel]
        stop[rows] = t

    for t in range(horizon):
        full = len(act) == nb
        d = shifts[t] if full else shifts[t].take(act)
        a = incs[t] if full else incs[t].take(act)
        # a negative column reads as a huge unsigned one
        cell = base + np.minimum(col.view(np.uint64), out).view(np.intp)
        lamps[cell] += a
        col += d
        last[col.view(np.uint64) <= 2 * W] = t
        if t % RETIRE_EVERY == RETIRE_EVERY - 1:
            done = np.abs(col - W) - (horizon - 1 - t) >= W + 3
            if done.any():
                settle(done, t)
                keep = ~done
                act, base, col, last = (act[keep], base[keep], col[keep],
                                        last[keep])
                if not len(act):
                    break
    settle(slice(None), horizon - 1)
    lamps = (lamps.reshape(nb, width)[:, :2 * W + 1] % q).astype(np.int16)
    return lamps, pos, last_touch, stop


def _wreath_block(shift, inc, probs, q: int, n_samples: int, horizon: int,
                  seed: int, block: int):
    lamps, pos, last_touch, _ = _wreath_paths(
        shift, inc, probs, q, n_samples, horizon, seed, block)
    W = WREATH_WINDOW_STORE
    ok = ((np.abs(pos) >= W + 3)
          & (horizon - 1 - last_touch >= STABLE_STEPS))
    kept = np.column_stack((np.sign(pos[ok]).astype(np.int16), lamps[ok]))
    counts = _row_counts(
        kept, lambda row: ("+" if row[0] > 0 else "-", tuple(row[1:])))
    return counts, int(len(ok) - int(ok.sum()))


def _lattice_block(steps, probs, n_samples: int, horizon: int, seed: int,
                   block: int):
    lo, hi = block_bounds(block, n_samples)
    nb = hi - lo
    pos, = _time_major_steps(block_rng(seed, block), probs, [steps], nb,
                             horizon)
    # positions summed in place a step at a time, several times faster than
    # np.cumsum down the time axis
    for t in range(1, horizon):
        pos[t] += pos[t - 1]
    final = pos[-1]
    tail = pos[-STABLE_STEPS:]
    sign_stable = (np.all(tail > 0, axis=0) | np.all(tail < 0, axis=0))
    ok = (np.abs(final) >= ESCAPE_SLACK) & sign_stable
    counts = Counter()
    pos_count = int(np.sum(ok & (final > 0)))
    neg_count = int(np.sum(ok & (final < 0)))
    counts["+inf"] = pos_count
    counts["-inf"] = neg_count
    return counts, int(nb - pos_count - neg_count)


def _merge(results):
    counts, bad = Counter(), 0
    for c, b in results:
        counts.update(c)
        bad += b
    return counts, bad


def _run_blocks(block_fn, nblocks: int, workers: int):
    """(merged counts, failures) of block_fn over blocks 0..nblocks-1.

    workers > 1 runs the blocks on min(workers, nblocks) forked processes;
    block_fn must pickle by reference (a module-level function or a
    partial of one).  Counts are integers merged in block order, so the
    result does not depend on the worker count.
    """
    if workers <= 1:
        return _merge(map(block_fn, range(nblocks)))
    try:
        with ProcessPoolExecutor(max_workers=min(workers, nblocks),
                                 mp_context=mp.get_context("fork")) as pool:
            return _merge(pool.map(block_fn, range(nblocks)))
    except BrokenProcessPool as exc:
        raise SamplingError(f"a sampling worker process died: {exc}",
                            report={"workers": workers,
                                    "blocks": nblocks}) from None


def default_horizon(G: GroupModel, depth: int) -> int:
    if G.kind == "free":
        return 2 * (depth + ESCAPE_SLACK) + STABLE_STEPS + 64
    if G.kind == "wreath":
        return 320
    return 256


def harmonic_measure_estimate(w: WalkSpec, depth: int, n_samples: int,
                              seed: int, workers: int = 1,
                              horizon: int | None = None) -> MeasureModel:
    """Exit distribution of the walk on its boundary model.

    Free groups return a depth-D cylinder measure, lattices (d=1) the
    two-end bins, wreath groups window bins (drift sign, lamp pattern on
    [-5, 5], the window bins are stored and reported on); standard
    errors follow from the converged count, kept as `n_eff`.  A
    non-convergence rate above 1% aborts with the rate in the report.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples")
    G = w.group
    if horizon is None:
        horizon = default_horizon(G, depth)
    if G.kind == "free":
        steps = _free_letter_steps(w)
        if steps is None:
            raise UnsupportedGroupError(
                "fast estimator needs single-letter steps; longer supports "
                "are out of scope"
            )
        block_fn = partial(_free_block, *steps, depth, n_samples, horizon,
                           seed)
    elif G.kind == "wreath":
        steps = _wreath_steps(w)
        if steps is None:
            raise UnsupportedGroupError(
                "wreath estimator needs lamp-at-origin and unit translation "
                "steps"
            )
        block_fn = partial(_wreath_block, *steps, G.params[0], n_samples,
                           horizon, seed)
    elif G.kind == "lattice" and G.params[0] == 1:
        block_fn = partial(_lattice_block,
                           np.array([s.data[0] for s, _ in w.steps]),
                           np.array([p for _, p in w.steps]),
                           n_samples, horizon, seed)
    else:
        raise UnsupportedGroupError(
            f"no boundary model for sampling on {G.spec()}"
        )
    counts, bad = _run_blocks(block_fn, block_count(n_samples), workers)
    n_conv = n_samples - bad
    rate = bad / n_samples
    if rate > MAX_NONCONVERGED:
        raise SamplingError(
            f"non-convergence rate {rate:.3%} above "
            f"{MAX_NONCONVERGED:.0%}",
            report={"nonconverged": rate, "n_samples": n_samples,
                    "horizon": horizon},
        )
    if n_conv <= 0:
        raise SamplingError("no converged paths", report={"rate": rate})
    masses = {cell: c / n_conv for cell, c in counts.items()}
    if G.kind == "free":
        return MeasureModel.cylinder(G, depth, masses, nonconverged=rate,
                                     note=f"harmonic estimate, n={n_samples}",
                                     n_eff=n_conv)
    note = (f"harmonic estimate, n={n_samples}, window "
            f"[-{WREATH_WINDOW_STORE},{WREATH_WINDOW_STORE}]"
            if G.kind == "wreath" else f"harmonic estimate, n={n_samples}")
    return MeasureModel.binned(G, masses, nonconverged=rate, note=note,
                               n_eff=n_conv)
