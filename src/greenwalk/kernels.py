"""Green kernels of transient walks, by two independent routes.

The absorbing-boundary route finds the Green row of the walk killed on
exit from an enumerated ball, so every value is a lower bound on the true
Green function G(x,y) = sum_n mu^n(x,y); its error is estimated as the
change when the margin is halved.  The series route sums the n-step
convolution powers and estimates its truncation tail by a calibrated
geometric envelope C * rho^n with a 1.05 safety factor on the estimated
spectral radius.  Neither error is a proven bound; `meta["error_kind"]`
names which one a table holds.  Tables built both ways must agree within
the combined error; tests enforce this.

On a ball both routes step mass by one CSR matvec with P^T.  The killed
Green row is the fixed point of v <- delta_e + P^T v, iterated from
v = delta_e until a sweep leaves v unchanged in floating point; every
iterate is a partial sum of the row, hence a lower bound on it.  A ball
gets at most one sweep per state; past that budget its row comes from a
sparse LU solve (`spsolve`) of (I - P^T) v = delta_e.  The spheres get no
sweep at all, as their budget is too short to settle.  `meta["solver"]`
and `meta["sweeps"]` record the route of the work-ball and half-ball
solves.

Every table is a value vector and an error vector read at one position,
on one of two state spaces.  For the isotropic simple random walk on a
free group the states are the spheres (`Spheres`): transition
probabilities depend only on the word length, so spheres lump exactly,
g is read at |g|, and a working radius of several hundred costs nothing.
This is what pushes Green values at depth ten past the 1e-5 barrier that
a direct ball truncation cannot reach.  Every other table keeps its
vectors in the order of its work ball and reads g at ball.position(g),
the place of g's integer code among the ball's sorted codes.  Either way
g is read only when |g| <= radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse

from .errors import (
    PrecisionError,
    RangeError,
    TransienceError,
)
from .groups import Ball, GroupElement, GroupModel, shared_ball
from .walks import WalkSpec

RHO_SAFETY = 1.05
RHO_GATE = 1.0 - 1e-6
SERIES_EPS = 1e-6
SERIES_N_CAP = 20_000

RADIUS_DEFAULTS = {"free": 8, "lattice": 20, "wreath": 10, "product": 6}
MARGIN_DEFAULTS = {"free": 6, "lattice": 60, "wreath": 8, "product": 2}
CHAIN_EXTRA = 120
# what a table's entry errors are, by method (meta["error_kind"])
ERROR_KINDS = {"linear-solve": "margin-halving estimate",
               "series": "geometric tail envelope"}


def default_radius(walk: WalkSpec) -> int:
    if walk.group.kind == "lattice" and walk.group.params[0] > 1:
        return 10
    return RADIUS_DEFAULTS[walk.group.kind]


def default_margin(walk: WalkSpec) -> int:
    if walk.is_isotropic_free_srw:
        return CHAIN_EXTRA
    if walk.group.kind == "lattice" and walk.group.params[0] > 1:
        return 8
    return MARGIN_DEFAULTS[walk.group.kind]


def check_transient(walk: WalkSpec) -> None:
    """Reject walks that are recurrent at desk scale.

    Lattices of dimension <= 2 need nonzero drift; every other supported
    group has exponential growth, where any finitely supported adapted
    walk is transient.
    """
    if walk.group.kind == "lattice" and walk.group.params[0] <= 2:
        drift = walk.mean_drift()
        if max(abs(x) for x in drift) < 1e-12:
            raise TransienceError(
                f"driftless walk on {walk.group.spec()} is recurrent; "
                "no Green table exists"
            )


# -- convolution backends -----------------------------------------------------


class BallOperator:
    """Right-convolution by the step distribution, killed outside a ball.

    `succ[k][i]` is the state reached from state i by steps[k], or -1 when
    that step leaves the ball; `start` is the identity's state.  `step` is
    the transposed transition matrix P^T in canonical CSR form (each row's
    sources sorted, no duplicates), so one step of a mass vector is one
    matvec, `exit[i]` is the mass that leaves the ball from state i, and
    `depth[i]` is state i's word length.
    """

    def __init__(self, walk: WalkSpec, succ: list, start: int,
                 depth: np.ndarray):
        self.walk = walk
        self.succ = succ
        self.start = start
        self.depth = depth
        self.size = n = len(succ[0])
        self.probs = [p for _, p in walk.steps]
        self.exit = np.zeros(n)
        for dest, p in zip(succ, self.probs):
            self.exit[dest < 0] += p
        # scipy transposes by a counting sort, so each row of P^T lists its
        # sources in order, and the steps from one source to one state
        # (the spheres' outward steps) sit together in step order, where
        # sum_duplicates adds them left to right with no sort
        self.step = _transition_csr(succ, self.probs).T.tocsr()
        self.step.sum_duplicates()

    @classmethod
    def on_ball(cls, walk: WalkSpec, ball: Ball) -> "BallOperator":
        """The operator whose state i is ball.elements[i].

        A step that is a generator or the identity reads its successors
        from `ball.neighbours`, so no element is decoded; any other step
        multiplies every element, because composing generator columns
        would lose the paths that leave the ball and come back within one
        step.
        """
        G = walk.group
        column = {s: j for j, s in enumerate(G.generators())}
        e = G.identity()
        succ = []
        for s in walk.support():
            if s in column:
                succ.append(ball.neighbours[:, column[s]])
            elif s == e:
                succ.append(np.arange(len(ball), dtype=np.int32))
            else:
                found = map(ball.position, (G._mul(a, s) for a in ball.elements))
                succ.append(np.array([-1 if i is None else i for i in found],
                                     dtype=np.int32))
        return cls(walk, succ, ball.position(e), ball.depth)

    def restricted(self, keep: np.ndarray) -> "BallOperator":
        """The same walk killed outside the states where `keep` is True.

        Kept states keep their order, so restricting a ball's operator to
        a sub-ball gives the operator built on that sub-ball.
        """
        # the extra -1 maps an exit
        renumber = np.full(self.size + 1, -1, dtype=np.int32)
        renumber[:-1][keep] = np.arange(int(np.count_nonzero(keep)))
        succ = [renumber[idx[keep]] for idx in self.succ]
        return BallOperator(self.walk, succ, int(renumber[self.start]),
                            self.depth[keep])

    def start_vector(self) -> np.ndarray:
        v = np.zeros(self.size)
        v[self.start] = 1.0
        return v

    def convolve(self, vec: np.ndarray):
        """One step of the killed walk; returns (new_vec, dropped_mass)."""
        # a numpy sum, not a BLAS dot: threaded BLAS can take ms per call
        return self.step @ vec, float((vec * self.exit).sum())


def _transition_csr(succ: list, probs: list) -> scipy.sparse.csr_matrix:
    """P in CSR form, straight from the successor columns: row x lists the
    states that x's steps reach inside, in step order."""
    cols = np.column_stack(succ)
    inside = cols >= 0
    indptr = np.zeros(len(cols) + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(inside, axis=1), out=indptr[1:])
    return scipy.sparse.csr_matrix(
        (np.broadcast_to(probs, cols.shape)[inside], cols[inside], indptr),
        shape=(len(cols), len(cols)))


class Spheres:
    """The spheres of F_k up to `radius`, as the states of the isotropic
    simple random walk's distance chain (Woess 2000, ch. 1).

    State d is the sphere of radius d, so `depth[d]` is d and
    `position(g)` is |g|.  Column 0 of `neighbours` steps inward, and the
    identity's inward step goes to sphere 1; the other 2k - 1 columns step
    outward, to -1 past the last sphere.  The walk's 2k equal steps read
    one column each, so `BallOperator.on_ball` gives the exact lumping of
    the walk killed outside B(radius).
    """

    def __init__(self, k: int, radius: int):
        self.depth = np.arange(radius + 1)
        inward = np.append(1, self.depth[:-1])
        outward = np.append(self.depth[1:], -1)
        self.neighbours = np.column_stack([inward] + [outward] * (2 * k - 1))
        self._group = GroupModel.free(k)

    def position(self, g: GroupElement) -> int | None:
        """|g| for a canonical element of F_k of length <= radius, else None."""
        if not self._group.is_canonical(g) or len(g.data) >= len(self.depth):
            return None
        return len(g.data)


# -- kernel tables ------------------------------------------------------------


@dataclass(eq=False)
class KernelTable:
    """Green values G(e, g) on a ball, with per-entry error estimates.

    The table is two vectors read at one position: `values[i]` is G(e, g)
    and `errors[i]` its error, of the kind `meta["error_kind"]` names.  The
    vectors are laid out like the state space `ball`, a work ball or the
    isotropic free SRW's `Spheres`, so g sits at ball.position(g) and is
    covered when that is found and |g| <= radius.

    G(x, y) for general x is obtained through translation invariance
    G(x, y) = G(e, x^{-1} y), so the invariance identity holds exactly by
    construction.
    """

    walk: WalkSpec
    radius: int
    steps_used: int | None
    meta: dict
    values: np.ndarray
    errors: np.ndarray
    ball: Ball | Spheres

    # -- lookups ------------------------------------------------------------

    def _position(self, g: GroupElement) -> int | None:
        """Where g sits in `values` and `errors`; None past the radius."""
        i = self.ball.position(g)
        if i is None or self.ball.depth[i] > self.radius:
            return None
        return i

    def _read(self, vector: np.ndarray, g: GroupElement) -> float:
        i = self._position(g)
        if i is None:
            raise RangeError(f"element outside table radius {self.radius}")
        return float(vector[i])

    def covers(self, g: GroupElement) -> bool:
        return self._position(g) is not None

    def green_at(self, g: GroupElement) -> float:
        """G(e, g)."""
        return self._read(self.values, g)

    def entry_error(self, g: GroupElement) -> float:
        return self._read(self.errors, g)

    @property
    def green_at_e(self) -> float:
        return self.green_at(self.walk.group.identity())

    def green_pair(self, x: GroupElement, y: GroupElement) -> float:
        """G(x, y) by translation invariance."""
        G = self.walk.group
        return self.green_at(G.mul(G.inv(x), y))

    def martin(self, g: GroupElement, h: GroupElement) -> float:
        """Finite Martin kernel K(g, h) = G(g, h) / G(e, h)."""
        return self.green_pair(g, h) / self.green_at(h)

    def _kernel_read(self, ginv: GroupElement, x: GroupElement):
        """(K(g, x), its first-order error bar from the entry errors), or
        None when x or g^-1 x lies outside the table.

        Takes g^-1, so a caller with many x forms it once, and checks
        neither argument: both must be canonical.  Each of x and g^-1 x is
        read at one position, for its value and its error.
        """
        i = self._position(x)
        j = None if i is None else self._position(
            self.walk.group._mul(ginv, x))
        if j is None:
            return None
        num, den = float(self.values[j]), float(self.values[i])
        return num / den, (float(self.errors[j])
                           + (num / den) * float(self.errors[i])) / den


def build_kernel_table(walk: WalkSpec, radius: int | None = None,
                       method: str = "linear-solve",
                       margin: int | None = None) -> KernelTable:
    """Build a Green table by the requested method.

    radius -- largest word length the table will answer queries for
    method -- "linear-solve" or "series"; a series table sums terms until
              its tail estimate is below SERIES_EPS, within SERIES_N_CAP
              terms
    margin -- extra working radius beyond `radius` shielding the exposed
              entries from the absorbing boundary (or from dropped series
              mass); defaults per group kind, and to CHAIN_EXTRA on the
              isotropic free SRW's spheres.
    """
    check_transient(walk)
    if radius is None:
        radius = default_radius(walk)
    if method not in ("series", "linear-solve"):
        raise ValueError(f"unknown method {method!r}")
    if margin is None:
        margin = default_margin(walk)
    if method == "linear-solve" and margin < 1:
        raise ValueError(f"linear-solve needs margin >= 1, got {margin}")
    if walk.is_isotropic_free_srw:
        space = Spheres(walk.group.params[0], radius + margin)
    else:
        space = shared_ball(walk.group, radius + margin)
    if method == "linear-solve":
        return _build_solve(walk, radius, margin, space)
    return _build_series(walk, radius, margin, space)


def _table(walk: WalkSpec, radius: int, method: str, steps_used: int | None,
           values: np.ndarray, errors: np.ndarray, ball: Ball | Spheres,
           **meta) -> KernelTable:
    """The table of `values` and `errors` laid out like `ball`; errors are
    floored at 1e-15.  A state of `Spheres` holds a whole sphere, so its
    exposed entries are divided by the sphere's exact size; sizes past the
    radius are not formed, as they overflow a float on large ranks.
    `meta` holds the route's own entries."""
    exposed = ball.depth <= radius
    if isinstance(ball, Spheres):
        k = walk.group.params[0]
        size = np.array([1] + [2 * k * (2 * k - 1) ** (d - 1)
                               for d in range(1, radius + 1)], dtype=float)
        values[exposed] /= size
        errors[exposed] /= size
    else:
        meta["ball_size"] = len(ball)
    errors = np.maximum(errors, 1e-15)
    meta.update(max_entry_error=float(errors[exposed].max()),
                error_kind=ERROR_KINDS[method])
    return KernelTable(walk, radius, steps_used, meta, values, errors, ball)


def _build_solve(walk: WalkSpec, radius: int, margin: int,
                 ball: Ball | Spheres) -> KernelTable:
    op = BallOperator.on_ball(walk, ball)
    v_full, work_solver, work_sweeps = _absorbing_green_row(op)
    # the error estimate compares with the walk killed outside a smaller
    # ball, whose states are this ball's states of length <= its radius
    keep = ball.depth <= radius + max(1, margin // 2)
    v_half = np.zeros_like(v_full)
    v_half[keep], half_solver, half_sweeps = _absorbing_green_row(
        op.restricted(keep))
    return _table(walk, radius, "linear-solve", None, v_full,
                  np.abs(v_full - v_half), ball, work_radius=radius + margin,
                  solver={"work": work_solver, "half": half_solver},
                  sweeps={"work": work_sweeps, "half": half_sweeps},
                  dropped_mass=0.0)


def _build_series(walk: WalkSpec, radius: int, margin: int,
                  ball: Ball | Spheres) -> KernelTable:
    op = BallOperator.on_ball(walk, ball)
    sums, tails, n_used, dropped = _series_accumulate(
        op, np.flatnonzero(ball.depth <= radius), SERIES_EPS)
    return _table(walk, radius, "series", n_used, sums, tails,
                  ball, work_radius=radius + margin, dropped_mass=dropped)


def _absorbing_green_row(op: BallOperator):
    """(v, solver, sweeps), v[y] = G(e, y) for the walk killed outside the
    operator's states.  The iterates are partial sums of v, so they only
    grow, in floating point too as rounding is monotone; being bounded,
    they stop changing after finitely many sweeps.

    A walker needs depth.max() + 1 steps to leave the states.  Where there
    are no more states than that (the spheres, a chain), the mass still
    inside stays near 1 for the whole budget of one sweep per state, so
    the fixed point cannot settle and the row goes straight to `spsolve`,
    with 0 sweeps.
    """
    budget = op.size if op.size > op.depth.max() + 1 else 0
    v = op.start_vector()
    for sweep in range(1, budget + 1):
        nxt = op.step @ v
        nxt[op.start] += 1.0
        if np.array_equal(nxt, v):
            return v, "fixed-point", sweep
        v = nxt
    import scipy.sparse.linalg  # here, so `import greenwalk` does not load it
    A = scipy.sparse.identity(op.size, format="csr") - op.step
    return (scipy.sparse.linalg.spsolve(A.tocsc(), op.start_vector()),
            "spsolve", budget)


def _series_accumulate(op, exposed_idx, eps: float):
    """Sum convolution powers until the calibrated tail clears eps.

    Returns (sums, tails, n_used, dropped_mass).
    The tail bound per entry is max(term/rho_safe^n over the last 4 terms)
    * rho_safe^{n+1}/(1-rho_safe), a geometric envelope calibrated on the
    trailing terms; heuristic because rho_hat, the latest even-step
    (mu^n(e))^{1/n}, estimates the true spectral radius from below.  The
    last four terms are kept with their scales rho_safe^n, the test reads
    the envelope at the exposed entries only, and the full envelope is
    formed once, for the result.
    """
    vec = op.start_vector()
    start = op.start
    sums = vec.copy()
    dropped = 0.0
    window: list[tuple[np.ndarray, float]] = []  # (term, rho_safe^n)
    rho_hat = 0.0
    n = 0
    factor = None  # rho_safe^(n+1) / (1 - rho_safe) at the last test

    def tails(idx=slice(None)):
        envelope = reduce(np.maximum, (term[idx] / scale
                                       for term, scale in window))
        envelope *= factor[0]
        envelope /= factor[1]
        return envelope

    while n < SERIES_N_CAP:
        vec, d = op.convolve(vec)
        dropped += d
        n += 1
        sums += vec
        if n % 2 == 0 and vec[start] > 0:
            rho_hat = float(vec[start]) ** (1.0 / n)
        if n >= 8:
            rho_safe = RHO_SAFETY * rho_hat
            if rho_safe >= RHO_GATE:
                raise TransienceError(
                    f"safety-inflated spectral radius {rho_safe:.8f} too close "
                    "to 1; series tail cannot be bounded"
                )
            window.append((vec, rho_safe**n))
            if len(window) > 4:
                window.pop(0)
            if n % 2 == 0 and len(window) >= 4:
                factor = rho_safe ** (n + 1), 1.0 - rho_safe
                if float(tails(exposed_idx).max()) <= eps:
                    return sums, tails(), n, dropped
    full = tails()  # SERIES_N_CAP is even, so the last term was tested
    best = float(full[exposed_idx].max()) if np.isfinite(full).any() else float("inf")
    raise PrecisionError(
        f"series tail {best:.3e} still above eps={eps:.3e} after {n} terms",
        best_bound=best,
    )


# -- free-standing operations -------------------------------------------------


def n_step_distribution(walk: WalkSpec, n: int, radius: int):
    """Distribution of the walk after n steps, restricted to B(e, radius).

    Exact for every element when n * max_step_length <= radius; otherwise
    a lower bound, with the escaped mass returned alongside.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    ball = shared_ball(walk.group, radius)
    op = BallOperator.on_ball(walk, ball)
    vec = op.start_vector()
    dropped = 0.0
    for _ in range(n):
        vec, d = op.convolve(vec)
        dropped += d
    out = {
        g: float(vec[i]) for i, g in enumerate(ball.elements) if vec[i] != 0.0
    }
    return out, dropped


def harnack_scan(table: KernelTable, radius: int) -> float:
    """Empirical Harnack constant on the covered ball.

    C = max over x, y, z in B(e, radius) of (G(x,z)/G(y,z))^(1/d(x,y));
    requires table radius >= 2 * radius so that all lookups resolve.
    G(x, y) = G(e, x^-1 y) by translation invariance, and x^-1 y has
    length d(x, y), so the scan reads every pair at the table position of
    x^-1 y (`_scan_positions`), found for all pairs at once.
    """
    if 2 * radius > table.radius:
        raise RangeError(
            f"harnack_scan at radius {radius} needs a table of radius "
            f">= {2 * radius}, have {table.radius}"
        )
    pos = _scan_positions(table, shared_ball(table.walk.group, radius))
    dist = table.ball.depth[pos]
    if (pos < 0).any() or dist.max() > table.radius:
        raise RangeError(f"element outside table radius {table.radius}")
    vals = table.values[pos]
    # ratio[i, j]: the largest G(x_i, z) / G(x_j, z) over z; t -> t^(1/d)
    # increases, so that largest ratio gives the pair's candidate, and the
    # largest ratio at each distance d gives that distance's candidate
    ratio = reduce(np.maximum, (np.divide.outer(v, v) for v in vals.T))
    up = (ratio > 1.0) & (dist > 0)
    return max([float(ratio[up & (dist == d)].max()) ** (1.0 / d)
                for d in np.unique(dist[up]).tolist()], default=1.0)


def _scan_positions(table: KernelTable, scan: Ball) -> np.ndarray:
    """pos[i, j]: the table position of x_i^-1 x_j, for x the elements of
    the ball `scan`, or -1 where that product leaves the table's states.

    On the spheres the position is the length |x| + |y| - 2 (common
    prefix of x and y).  On a work ball the column of e holds each x_i^-1,
    found by one lookup per element; every other x_j is x_p * s for a
    parent x_p one sphere nearer e, so x_i^-1 x_j is the neighbour of
    x_i^-1 x_p along s, and the columns are filled sphere by sphere.
    """
    depth = scan.depth
    if isinstance(table.ball, Spheres):
        r = scan.radius
        words = np.array([x.data + (0,) * (r - len(x.data))
                          for x in scan.elements]).reshape(len(scan), r)
        same = (words[:, None] == words[None]) & (words[:, None] != 0)
        prefix = np.logical_and.accumulate(same, axis=2).sum(axis=2)
        return depth[:, None] + depth[None] - 2 * prefix
    G, space = table.walk.group, table.ball
    # one (parent, generator column) pair per element other than e, from
    # the scan ball's own neighbour table
    src, col = np.nonzero(scan.neighbours >= 0)
    dst = scan.neighbours[src, col]
    out = depth[dst] == depth[src] + 1
    child, first = np.unique(dst[out], return_index=True)
    parent, letter = np.zeros_like(depth), np.zeros_like(depth)
    parent[child], letter[child] = src[out][first], col[out][first]
    # an extra row of -1 keeps a step out of the table's states at -1
    step = np.vstack([space.neighbours,
                      np.full(space.neighbours.shape[1], -1)])
    pos = np.empty((len(scan), len(scan)), dtype=np.intp)
    found = map(space.position, map(G.inv, scan.elements))
    pos[:, scan.position(G.identity())] = [-1 if i is None else i
                                           for i in found]
    for d in range(1, scan.radius + 1):
        js = np.flatnonzero(depth == d)
        pos[:, js] = step[pos[:, parent[js]], letter[js]]
    return pos
