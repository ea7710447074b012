"""Path sampling, boundary convergence, and harmonic-measure estimates.

Sampling is split into fixed-size blocks keyed by (seed, block); each
block simulates its paths with NumPy array kernels and reports integer
cell counts.  Integer aggregation is order-independent, so estimates are
identical for any worker count and bit-identical for a fixed seed.  With
workers > 1 the blocks run on forked worker processes, at most one per
block; one worker runs them in the calling process.

Convergence bookkeeping follows the walk instead of storing full
histories: a free walker's depth-D prefix can only change while its
reduced word is shorter than D+1 letters, so tracking the last step at
which the length dipped that low tells us how long the prefix has been
frozen.  The wreath walker similarly tracks its last visit to the lamp
window that the boundary bins can see.
"""

from __future__ import annotations

import math
import multiprocessing as mp
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial

import numpy as np

from .boundary import BoundaryApproximant
from .errors import ConvergenceError, SamplingError, UnsupportedGroupError
from .groups import GroupElement, GroupModel
from .measures import MeasureModel
from .rng import block_bounds, block_count, block_rng
from .walks import WalkSpec

STABLE_STEPS = 50
ESCAPE_SLACK = 20
WREATH_WINDOW = 2
WREATH_WINDOW_STORE = WREATH_WINDOW + 3
MAX_NONCONVERGED = 0.01


@dataclass(eq=False)
class PathSample:
    """One sampled trajectory; positions[0] is the start."""

    start: GroupElement
    positions: list
    seed: int
    group: GroupModel = None
    converged: BoundaryApproximant | None = None


def sample_path(w: WalkSpec, g: GroupElement, horizon: int, seed: int,
                path_index: int = 0) -> PathSample:
    """Simulate horizon steps from g; keyed by (seed, path_index)."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    G = w.group
    G.check(g)
    rng = block_rng(seed, path_index)
    probs = np.array([p for _, p in w.steps])
    support = [s for s, _ in w.steps]
    draws = rng.choice(len(support), size=horizon, p=probs)
    positions = [g]
    cur = g
    for i in draws:
        cur = G.mul(cur, support[i])
        positions.append(cur)
    return PathSample(start=g, positions=positions, seed=seed, group=G)


# -- boundary convergence -----------------------------------------------------


def boundary_from_path(p: PathSample, depth: int) -> BoundaryApproximant:
    """Boundary point the path converged to, known to `depth`.

    Free case: the depth-letter prefix of the reduced word, required to be
    untouched for the last STABLE_STEPS positions after the word length
    has cleared depth + ESCAPE_SLACK.  Other groups: an escaping
    subsequence of the trajectory tail.
    """
    group = p.group
    if group is None:
        raise ValueError("path sample carries no group model")
    if group.kind == "free":
        return _tree_end_from_path(group, p, depth)
    # generic: strictly escaping subsequence of the tail
    lengths = [_coarse_length(group, x) for x in p.positions]
    if max(lengths) < depth + ESCAPE_SLACK:
        raise ConvergenceError(
            f"path never left the ball of radius {depth + ESCAPE_SLACK}",
            achieved_depth=max(lengths), last_values=tuple(lengths[-3:]),
        )
    elems, best = [], -1
    for x, ln in zip(p.positions, lengths):
        if ln > best:
            elems.append(x)
            best = ln
    tail = [x for x in elems if _coarse_length(group, x) >= 1]
    if len(tail) < 3:
        raise ConvergenceError(
            "escaping subsequence too short", achieved_depth=len(tail),
            last_values=(),
        )
    return BoundaryApproximant.sequence(group, tail[-8:])


def _coarse_length(G: GroupModel, x: GroupElement) -> int:
    hint = G.word_length_hint(x)
    if hint is not None:
        return hint
    if G.kind == "wreath":
        lamps, pos = x.data
        return abs(pos) + len(lamps)
    return 0


def _tree_end_from_path(G: GroupModel, p: PathSample,
                        depth: int) -> BoundaryApproximant:
    words = [x.data for x in p.positions]
    lengths = [len(w) for w in words]
    if max(lengths) < depth + ESCAPE_SLACK:
        raise ConvergenceError(
            f"word length never exceeded {depth + ESCAPE_SLACK}",
            achieved_depth=max(lengths), last_values=tuple(lengths[-3:]),
        )
    final = words[-1]
    if len(final) <= depth:
        raise ConvergenceError(
            f"final word shorter than requested depth {depth}",
            achieved_depth=len(final), last_values=(),
        )
    prefix = final[:depth]
    window = min(STABLE_STEPS, len(words) - 1)
    for w in words[-window:]:
        if len(w) <= depth or w[:depth] != prefix:
            raise ConvergenceError(
                f"prefix still moving in the last {window} steps",
                achieved_depth=depth, last_values=(),
            )
    return BoundaryApproximant.tree_end(G, prefix)


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


def _draws(rng: np.random.Generator, probs: np.ndarray, shape) -> np.ndarray:
    """The step indices `rng.choice(len(probs), size=shape, p=probs)` draws.

    `choice` inverts the normalised CDF at one uniform u per draw:
    `cdf.searchsorted(u, side="right")`, the number of CDF values <= u.
    For a short table that count is taken directly, one comparison pass
    per CDF value (u < 1 = cdf[-1], so the last never counts), which gives
    the same indices as int8 in a fraction of the search's time.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u = rng.random(shape)
    if len(cdf) > COUNTED_DRAWS:
        return cdf.searchsorted(u, side="right")
    idx = np.zeros(shape, dtype=np.int8)
    for c in cdf[:-1]:
        idx += (u >= c).view(np.int8)
    return idx


def _time_major(table: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """table[draws] as a contiguous (horizon, paths) array."""
    return np.ascontiguousarray(table[draws].T)


def _row_counts(rows: np.ndarray):
    """(distinct rows, counts) as lists, rows in lexicographic order: what
    `np.unique(rows, axis=0, return_counts=True)` gives, from a lexsort of
    the columns, which is much faster than its sort of structured rows."""
    rows = rows[np.lexsort(rows.T[::-1])]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    return rows[starts].tolist(), np.diff(starts, append=len(rows)).tolist()


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
    steps = _time_major(letters,
                        _draws(block_rng(seed, block), probs, (nb, horizon)))
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
    delta = np.array([1, -1], dtype=np.intp)

    def settle(sel, t):
        rows = act[sel]
        length[rows] = top[sel] - floor[sel] + depth
        peak[rows] = high[sel] - floor[sel] + depth
        last_touch[rows] = last[sel]
        stop[rows] = t

    for t in range(horizon):
        s = steps[t] if len(act) == nb else steps[t, act]
        back = words[top] + s == 0
        # a push writes s above the top; a cancel leaves it above the new
        # top, where the next push overwrites it before anything reads it
        words[top + 1] = s
        top += delta[back.view(np.uint8)]
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
    counts = Counter()
    kept = words[ok, 1:depth + 1]
    if kept.size:
        for row, c in zip(*_row_counts(kept)):
            counts[tuple(row)] = c
    return counts, int(len(ok) - int(ok.sum()))


def _wreath_case_steps(w: WalkSpec):
    """Step table (kind, value, prob): kind 0 lamp at pos, 1 translation."""
    table = []
    for s, p in w.steps:
        lamps, pos = s.data
        if pos == 0 and len(lamps) == 1 and lamps[0][0] == 0:
            table.append((0, lamps[0][1], p))
        elif pos in (1, -1) and not lamps:
            table.append((1, pos, p))
        else:
            return None
    return table


def _wreath_step_arrays(table):
    """(translation, lamp increment, probability) arrays of a step table."""
    shift = np.array([v if k == 1 else 0 for k, v, _ in table], dtype=np.int8)
    inc = np.array([v if k == 0 else 0 for k, v, _ in table], dtype=np.int16)
    return shift, inc, np.array([p for _, _, p in table])


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
    draws = _draws(block_rng(seed, block), probs, (nb, horizon))
    shifts, incs = _time_major(shift, draws), _time_major(inc, draws)
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
        d = shifts[t] if full else shifts[t, act]
        a = incs[t] if full else incs[t, act]
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
    counts = Counter()
    kept = np.column_stack((np.sign(pos[ok]).astype(np.int16), lamps[ok]))
    if kept.size:
        for row, c in zip(*_row_counts(kept)):
            counts[("+" if row[0] > 0 else "-", tuple(row[1:]))] = c
    return counts, int(len(ok) - int(ok.sum()))


def _lattice_block(steps, probs, n_samples: int, horizon: int, seed: int,
                   block: int):
    lo, hi = block_bounds(block, n_samples)
    nb = hi - lo
    incs = steps[_draws(block_rng(seed, block), probs, (nb, horizon))]
    pos = np.cumsum(incs, axis=1)
    final = pos[:, -1]
    tail = pos[:, -STABLE_STEPS:]
    sign_stable = (np.all(tail > 0, axis=1) | np.all(tail < 0, axis=1))
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
    [-5, 5], reported at window 2); per-cell standard errors are binomial
    in the converged count.  A non-convergence rate above 1% aborts with
    the rate in the report.
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
        table = _wreath_case_steps(w)
        if table is None:
            raise UnsupportedGroupError(
                "wreath estimator needs lamp-at-origin and unit translation "
                "steps"
            )
        block_fn = partial(_wreath_block, *_wreath_step_arrays(table),
                           G.params[0], n_samples, horizon, seed)
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
    se = {cell: math.sqrt(m * (1.0 - m) / n_conv)
          for cell, m in masses.items()}
    if G.kind == "free":
        return MeasureModel.cylinder(G, depth, masses, se, nonconverged=rate,
                                     note=f"harmonic estimate, n={n_samples}",
                                     n_eff=n_conv)
    note = (f"harmonic estimate, n={n_samples}, window "
            f"[-{WREATH_WINDOW_STORE},{WREATH_WINDOW_STORE}]"
            if G.kind == "wreath" else f"harmonic estimate, n={n_samples}")
    return MeasureModel.binned(G, masses, se, nonconverged=rate, note=note,
                               n_eff=n_conv)


# -- identity checks on estimated measures -------------------------------------


def rn_identity_check(t, nu: MeasureModel, g: GroupElement, B):
    """Residual and z-score of nu(g^{-1} B) = integral over B of K(g, .).

    B is a cylinder word tuple on the free boundary.  The integral uses
    exact tree kernels on subcells fine enough that K(g, .) is constant,
    so the only stochastic error is the Monte Carlo mass error.
    """
    from .conformal import conformality_residual

    res, err = conformality_residual(t, nu, 1.0, g, B)
    z = res / err if err > 0 else (0.0 if res <= 1e-12 else math.inf)
    return res, z


def stationarity_residual(w: WalkSpec, m: MeasureModel, B):
    """|sum_s mu(s) m(s^{-1}B) - m(B)| with its standard error."""
    from .conformal import cell_pullback_mass

    base, base_se = cell_pullback_mass(m, w.group.identity(), B)
    total = 0.0
    var = base_se**2
    for s, p in w.steps:
        val, se = cell_pullback_mass(m, s, B)
        total += p * val
        var += (p * se) ** 2
    return abs(total - base), math.sqrt(var)
