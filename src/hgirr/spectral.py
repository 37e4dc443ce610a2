"""Adjacency-tensor application and spectral radius of r-uniform hypergraphs.

The adjacency tensor of an r-uniform hypergraph carries 1/(r-1)! on every
permutation of every edge, so applying it to a vector collapses to one
product per incident edge:

    (A x)_i = sum over edges e containing i of prod_{j in e, j != i} x_j.

The kernel that applies it is built once per edge array: once per batched
layout, and once per component that the batch leaves open.

The spectral radius is the largest eigenvalue of A in the sense
A x = lambda x^[r-1], computed here per connected component by a shifted
power iteration (Ng, Qi and Zhou, SIAM J. Matrix Anal. Appl. 31, 2009) on
A + sigma I, with one sigma per component for the whole solve: a fraction
of its maximum degree D that its rank fixes, _SHIFT_GRAPH for a graph and
_SHIFT_HYPER for r >= 3. The shift keeps the iteration strictly positive and
makes it converge on a connected component (see SpectralOptions). The
min/max ratio bracket of A + sigma I, shifted back by sigma, is the stopping
criterion and the certified error bound; its tolerance is relative to
rho + sigma. The rounding pad of the bracket is keyed on D, not on sigma.

The power iteration contracts at about 1 - O(1/k^2) per step on a loose path
with k edges, so a component that has not converged after _NEWTON_AFTER
iterations continues with safeguarded Newton-Noda steps (Liu, Guo and Lin,
Numer. Math. 137, 2017), accepted when they narrow the ratio bracket; after
a rejected one, power steps take the rest of the budget. Every phase takes
and returns a measured state (x, y, lo, hi), so no iterate is measured twice,
and every phase stops on the same ratio bracket, the only certificate.

Components do not interact, so while two or more components of one rank,
across all the hypergraphs of one _spectral_radii call, are open, their power
iterations run together in one block-diagonal layout that gives each the bits
it gets alone; every component finishes in _finish_component.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .core import UniformHypergraph, _as_id, components

__all__ = [
    "SpectralOptions",
    "SpectralResult",
    "apply_adjacency",
    "spectral_radius",
]

# Power iterations before a component that has not converged switches to
# Newton-Noda steps. The components of random and fuzzed instances converge
# within 272 (verify at its default sizes and in partite mode; random analyze
# inputs take 14 to 20), so their results are those of the power iteration
# alone; a loose path with k edges needs about k^2 (k = 250: over 100,000).
_NEWTON_AFTER = 300
# Step halvings a Newton step may try before it is rejected.
_HALVINGS = 10
# A Newton step solves at the upper ratio of A plus this fraction of the
# bracket width, strictly above rho, where its matrix stays nonsingular.
_NEWTON_MARGIN = 1 / 16
# Conjugate gradients stop once |b - M y| <= _CG_TOL |b|, or after this many
# steps per vertex. A loose solve slows Newton but cannot move the
# certificate, which is the ratio bracket of whatever iterate is accepted.
_CG_TOL = 1e-8
_CG_STEPS_PER_VERTEX = 4
# The power iteration shifts a graph by _SHIFT_GRAPH times its maximum degree
# D and a component of rank r >= 3 by _SHIFT_HYPER times D (see
# SpectralOptions).
# A twentieth of D takes a third fewer iterations than a quarter on random
# instances (r = 3, n = 20k, m = 200k: 31 -> 20), but a bipartite graph
# slows down at a small shift (K(20, 30): 36 iterations at a quarter, 181 at
# a twentieth).
_SHIFT_HYPER = 0.05
_SHIFT_GRAPH = 0.25
# Terms, r per edge row, that a kernel gathers, multiplies and scatters per
# block, so that its float64 buffers, 256 KiB each, stay in cache.
_BLOCK_TERMS = 1 << 15
# Unit roundoff of float64.
_U = float(np.finfo(np.float64).eps) / 2


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error of k roundings
    of positive terms, each a sum, product or quotient (Accuracy and
    Stability of Numerical Algorithms, 2nd ed., SIAM 2002, Lemma 3.1)."""
    return k * _U / (1.0 - k * _U)


@dataclass(frozen=True)
class SpectralOptions:
    """Solver knobs.

    ``tolerance``, in (0, 1), bounds the relative width of the eigenvalue
    bracket at convergence (a bracket as wide as rho itself certifies
    nothing); ``max_iterations`` caps, per component, the power iterations
    plus the Newton steps taken together. The bracket is that of A + sigma I,
    so the width it bounds is relative to rho + sigma.

    The diagonal shift is not a setting: sigma is a fixed fraction of the
    component's maximum degree D, _SHIFT_GRAPH for a graph and the smaller
    _SHIFT_HYPER for r >= 3, for the whole solve. Any sigma > 0 makes the
    power iteration converge on a connected component. The adjacency tensor
    of a uniform hypergraph is weakly irreducible exactly when the
    hypergraph is connected (Pearson and Zhang, Graphs Combin. 30, 2014).
    Adding sigma > 0 on the diagonal adds a positive diagonal to its
    irreducible representative matrix, which makes that matrix primitive, so
    A + sigma I is weakly primitive; and for a weakly primitive nonnegative
    tensor the normalized power iteration converges to the positive
    eigenvector (Friedland, Gaubert and Han, Linear Algebra Appl. 438, 2013,
    where both notions are defined). That says nothing about the rate: a
    large sigma pulls every eigenvalue ratio toward 1, and a small one can
    bring a mode near -1. Near the Perron vector x the step is linear with
    the matrix L = D_x^-1 (B + sigma D_x) / (rho + sigma), D_x = diag(x^(r-2))
    and B the symmetric matrix with B x = A x^(r-1) (_pair_products). Each
    edge e adds (p_e / (r-1)) (u u^T - diag(u^2)) to B on its vertices, with
    u = 1/x and p_e the product of x over e; u u^T is positive semidefinite
    and the sum over the edges e at i of p_e / x_i^2 is rho x_i^(r-2), so
    B >= -(rho / (r-1)) D_x. Every eigenvalue of L is therefore at least
    (sigma - rho/(r-1)) / (rho + sigma) > -1/(r-1), so for r >= 3 no mode
    comes near -1 whatever sigma > 0, and the small fraction is safe. For
    r = 2 the bound is -rho, which every bipartite graph attains: its mode
    (sigma - rho) / (rho + sigma) nears -1 as sigma shrinks, hence the
    larger fraction for graphs.
    """

    tolerance: float = 1e-10
    max_iterations: int = 100_000

    def __post_init__(self) -> None:
        if not isinstance(self.tolerance, numbers.Real):
            raise ValueError(f"tolerance must be a real number, got {self.tolerance!r}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not self.tolerance < 1:
            raise ValueError(f"tolerance must be below 1, got {self.tolerance}")
        if _as_id(self.max_iterations) is None:
            raise ValueError(
                f"max_iterations must be an integer, got {self.max_iterations!r}"
            )
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class SpectralResult:
    """Converged estimate of the spectral radius.

    ``rho`` is the maximum over connected components. ``bracket`` encloses
    the true value (min/max eigenvalue-ratio bounds, maxed over components),
    so ``certified_error`` is a rigorous error bound. ``perron_vector`` is
    the iterate those ratios were taken from: positive and unit in the
    r-norm on each component separately. ``options`` are the settings the
    solve ran at; the solves that ``bound_suite`` (claim2) and
    ``weyl_check`` make beside it run at them too.
    """

    rho: float
    perron_vector: np.ndarray
    iterations: int
    converged: bool
    component_rhos: tuple[float, ...]
    bracket: tuple[float, float]
    options: SpectralOptions

    @property
    def certified_error(self) -> float:
        return 0.5 * (self.bracket[1] - self.bracket[0])


def _block_views(g: np.ndarray, o: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """The flat views of one block's (rows, r) gather and product buffers,
    and the in-place products between their columns, for _kernel."""
    r = g.shape[1]
    v = [g[:, j] for j in range(r)]
    c = [o[:, j] for j in range(r)]
    products = [(c[j - 1] if j > 2 else v[0], v[j - 1], c[j]) for j in range(2, r)]
    suffix = v[r - 1]
    for j in range(r - 2, 0, -1):
        products += [(c[j] if j > 1 else v[0], suffix, c[j]), (suffix, v[j], c[0])]
        suffix = c[0]
    return g.ravel(), o.ravel(), products


def _kernel(edges: np.ndarray, n: int):
    """apply(x) = (A x)_i for one 0-based (m, r) edge array on n vertices.

    The buffers and the lists of products are made here once. apply takes
    the edge rows in blocks of _BLOCK_TERMS // r: it gathers x into one
    (rows, r) buffer, multiplies in place into the other and scatters, by
    bincount for the first block, which makes the fresh result, and by
    np.add.at after it; both add term by term in flat edge order, so the
    bits are those of one bincount over all rows. Column j of the product
    buffer gets the prefix x_0 * ... * x_(j-1), multiplied left to right,
    times the suffix x_(r-1) * ... * x_(j+1), multiplied right to left; the
    running suffix is kept in column 0, which ends as the whole suffix. No
    product is divided back out, so x may have zero entries. For r = 2 each
    product is the other member's entry alone, so the gather reads the
    columns swapped straight into the product buffer."""
    m, r = edges.shape
    if m == 0:
        return lambda x: np.zeros(n, dtype=np.float64)
    # np.bincount copies a read-only index array on every call (numpy asks
    # for a writeable one), so the kernel keeps a writable one
    index = np.ascontiguousarray(edges).ravel()
    if not index.flags.writeable:
        index = index.copy()
    rows = min(m, max(1, _BLOCK_TERMS // r))
    out = np.empty((rows, r))
    if r == 2:
        source, gathered = edges[:, ::-1].ravel(), out
    else:
        source, gathered = index, np.empty((rows, r))
    multiply, bincount = np.multiply, np.bincount
    # mode="clip" gathers straight into the buffer, where the default
    # mode="raise" makes numpy gather into a temporary first. Clipping
    # changes nothing only because every edge array that reaches a kernel
    # belongs to a validated UniformHypergraph (0 <= id < n) and x has
    # length n.
    if rows == m:
        # one block, the common case of small inputs, builds no block list
        into, weights, products = _block_views(gathered, out)

        def apply_one(x: np.ndarray) -> np.ndarray:
            x.take(source, None, into, "clip")
            for left, right, result in products:
                multiply(left, right, result)
            return bincount(index, weights, n)

        return apply_one

    full, step, tail = _block_views(gathered, out), rows * r, m % rows
    blocks = [(source[t : t + step], index[t : t + step], full) for t in range(0, (m - tail) * r, step)]
    if tail:
        blocks.append((source[-tail * r :], index[-tail * r :], _block_views(gathered[:tail], out[:tail])))
    add_at = np.add.at

    def apply(x: np.ndarray) -> np.ndarray:
        y = None
        for terms, target, (into, weights, products) in blocks:
            x.take(terms, None, into, "clip")
            for left, right, result in products:
                multiply(left, right, result)
            if y is None:
                y = bincount(target, weights, n)
            else:
                add_at(y, target, weights)
        return y

    return apply


def apply_adjacency(H: UniformHypergraph, x) -> np.ndarray:
    """(A x)_i = sum over edges containing i of the product of the other entries."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (H.n,):
        raise ValueError(f"expected a vector of length {H.n}, got shape {x.shape}")
    return _kernel(H.edge_array, H.n)(x)


# The reductions behind ndarray.min, ndarray.max and np.sum, called without
# their Python wrappers; each gives the same bits.
_min, _max, _sum = np.minimum.reduce, np.maximum.reduce, np.add.reduce


def _norm_r(x: np.ndarray, r: int) -> float:
    return float(_sum(x**r) ** (1.0 / r))


def _shifted_ratios(
    apply, x: np.ndarray, sigma: float | np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """y = A x + sigma * x^[r-1] and the Collatz-Wielandt ratios y_i / x_i^(r-1),
    with A x from the _kernel ``apply``.

    For positive x the ratios' min and max enclose rho + sigma; every phase
    of the solve, batched or not, certifies through this one function."""
    xp = x ** (r - 1)
    y = apply(x)
    y += sigma * xp
    return y, y / xp


def _measure(apply, x: np.ndarray, sigma: float, r: int) -> tuple:
    """The measured state (x, y, lo, hi) of the iterate x: y and the min and
    max of its shifted ratios, from _shifted_ratios. Every phase of a
    component's solve takes and returns such a state."""
    y, ratios = _shifted_ratios(apply, x, sigma, r)
    return x, y, float(_min(ratios)), float(_max(ratios))


def _converged(state: tuple, tol: float) -> bool:
    """Whether the shifted ratio bounds of a measured state are relatively
    narrower than ``tol``."""
    _, _, lo, hi = state
    return hi - lo <= tol * max(1.0, hi)


def _steps(step, state: tuple, tol: float, budget: int) -> tuple[tuple, int]:
    """Up to ``budget`` steps from the measured ``state``, until it has
    converged or ``step`` returns None. Returns (state, steps taken)."""
    taken = 0
    while taken < budget and not _converged(state, tol):
        moved = step(state)
        if moved is None:
            break
        state, taken = moved, taken + 1
    return state, taken


def _power_step(apply, state: tuple, sigma: float, r: int) -> tuple:
    """One shifted power iteration (Ng-Qi-Zhou), with A x from the _kernel
    ``apply``: the measured renormalized (r-1)-th root of the state's y."""
    x = state[1] ** (1.0 / (r - 1))
    x /= _norm_r(x, r)
    return _measure(apply, x, sigma, r)


def _pair_products(edges: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """B(x) in coordinate form: (rows, columns, weights), r(r-1) per edge.

    B(x) is the symmetric matrix with B(x) x = A x^(r-1): entry (i, j) is
    1/(r-1) times the sum, over the edges holding both i and j, of the product
    of the edge's other r-2 entries of x. A pair held by several edges appears
    once per edge, so B v is np.bincount(rows, weights * v[columns])."""
    r = edges.shape[1]
    vals = x[edges]
    rows, cols, weights = [], [], []
    for a, b in itertools.combinations(range(r), 2):
        others = [c for c in range(r) if c != a and c != b]
        w = vals[:, others].prod(axis=1) / (r - 1)
        rows += [edges[:, a], edges[:, b]]
        cols += [edges[:, b], edges[:, a]]
        weights += [w, w]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(weights)


def _newton_step(
    edges: np.ndarray, x: np.ndarray, lam: float, r: int
) -> np.ndarray | None:
    """The Newton-Noda correction of x at ``lam``, which the caller sets
    strictly above rho.

    Solves (lam D - B(x)) y = x^[r-1], D = diag(x^(r-2)), by Jacobi
    preconditioned conjugate gradients, and returns ((r-2) x + y / <x^[r-1],
    y>)/(r-1) - x; None when the solve gives no usable direction. For lam
    above rho the matrix is a symmetric nonsingular M-matrix on a connected
    component, but rounding can break that near convergence, so the caller
    checks every candidate."""
    n = x.shape[0]
    rows, cols, weights = _pair_products(edges, x)
    diag = lam * x ** (r - 2)
    b = x ** (r - 1)
    y = np.zeros(n)
    res = b.copy()
    z = res / diag
    p = z.copy()
    rz = float(res @ z)
    stop = _CG_TOL * float(np.sqrt(b @ b))
    for _ in range(_CG_STEPS_PER_VERTEX * n):
        q = diag * p - np.bincount(rows, weights=weights * p[cols], minlength=n)
        pq = float(p @ q)
        if not pq > 0:
            break
        alpha = rz / pq
        y += alpha * p
        res -= alpha * q
        if float(np.sqrt(res @ res)) <= stop:
            break
        z = res / diag
        rz_next = float(res @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    scale = float(b @ y)
    if not (np.isfinite(scale) and scale > 0):
        return None
    return ((r - 2) * x + y / scale) / (r - 1) - x


def _safeguarded_newton_step(
    apply, edges: np.ndarray, state: tuple, sigma: float, r: int
) -> tuple | None:
    """One safeguarded Newton-Noda step from the measured ``state``, with
    A x from ``apply``, the _kernel of ``edges``.

    The step solves at mu = hi - sigma + (hi - lo) * _NEWTON_MARGIN, the
    upper ratio of A plus a fraction of the bracket width: strictly above
    rho, so the Newton matrix stays nonsingular even when rho and the second
    eigenvalue nearly coincide, where it is nearly singular at the upper ratio
    itself. It tries x + theta * delta for theta = 1, 1/2, ..., 2^-_HALVINGS
    and returns the measured state of the first candidate that is positive
    and whose bracket hi - lo is strictly narrower. The upper ratio may rise,
    so the monotone upper ratio of Liu, Guo and Lin's convergence proof is
    given up; every accepted bracket still encloses rho. Returns None when no
    candidate qualifies or the solve gives no direction."""
    x, _, lo, hi = state
    delta = _newton_step(edges, x, hi - sigma + (hi - lo) * _NEWTON_MARGIN, r)
    if delta is None:
        return None
    measured = None
    for halvings in range(_HALVINGS + 1):
        cand = x + 0.5**halvings * delta
        if (cand > 0).all():
            cand /= _norm_r(cand, r)
            # once theta * delta is below half an ulp of x, halvings can
            # round to the bits just rejected; a later one can differ again
            bits = cand.tobytes()
            if bits == measured:
                continue
            measured = bits
            moved = _measure(apply, cand, sigma, r)
            if moved[3] - moved[2] < hi - lo:
                return moved
    return None


def _certified_bracket(
    lo: float, hi: float, sigma: float, degree: int, r: int
) -> tuple[float, float]:
    """The certified bracket of rho from the min and max, lo and hi, of the
    ratios (A x)_i / x_i^(r-1) + sigma on a hypergraph of rank r and maximum
    degree D = ``degree``: shifted back by sigma and padded.

    The ratio evaluation itself rounds, so the enclosure must be padded
    before the bracket can be called certified. Each ratio is a sequential sum
    in edge order of d_i products of r - 1 positive factors, plus the shift
    term, divided once: fewer than D + 2r + 4 roundings."""
    noise = _gamma(degree + 2 * r + 4) * max(1.0, hi)
    return lo - sigma - noise, hi - sigma + noise


def _shift_fraction(r: int) -> float:
    """sigma / D for a component of rank r: _SHIFT_GRAPH for a graph, whose
    spectrum may hold -rho, and _SHIFT_HYPER for r >= 3 (see
    SpectralOptions)."""
    return _SHIFT_GRAPH if r == 2 else _SHIFT_HYPER


def _finish_component(
    sub: UniformHypergraph, opts: SpectralOptions, state: tuple | None, iterations: int
) -> tuple[float, np.ndarray, int, tuple[float, float], bool]:
    """Certified spectral radius of the connected component ``sub``,
    continued from the measured state (x, y, lo, hi) that _solve_group hands
    over after ``iterations`` batched steps, or from the measured start
    vector when it took none (``state`` None). Its shift is sigma = D *
    _shift_fraction(r) for its maximum degree D.

    An open component runs power steps up to min(_NEWTON_AFTER,
    max_iterations) iterations in all, then safeguarded Newton-Noda steps;
    if a Newton step is rejected, power steps take the rest of the budget,
    and Newton is not tried again. Every phase shares one kernel, built only
    if a measurement is left to make. Returns (rho, perron vector,
    iterations, bracket, converged): the vector whose ratios gave the
    bracket, from _certified_bracket, and iterations counting Newton steps.
    """
    tol, budget = opts.tolerance, opts.max_iterations
    r, degree = sub.r, int(sub.degree_array.max())
    sigma = degree * _shift_fraction(r)
    if state is None or (iterations < budget and not _converged(state, tol)):
        edges = sub.edge_array
        apply = _kernel(edges, sub.n)
        if state is None:
            start = np.full(sub.n, sub.n ** (-1.0 / r))
            state, iterations = _measure(apply, start, sigma, r), 1
        power = lambda s: _power_step(apply, s, sigma, r)
        newton = lambda s: _safeguarded_newton_step(apply, edges, s, sigma, r)
        for step, end in ((power, min(_NEWTON_AFTER, budget)), (newton, budget), (power, budget)):
            state, taken = _steps(step, state, tol, end - iterations)
            iterations += taken
    x, _, lo, hi = state
    bracket = _certified_bracket(lo, hi, sigma, degree, r)
    return 0.5 * (lo + hi) - sigma, x, iterations, bracket, _converged(state, tol)


def _layout(vlen: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """The first vertex of each component laid end to end with the vertex
    counts ``vlen``, and the runs of equally sized neighbours, as (first
    vertex, count, size)."""
    vstart = np.cumsum(vlen) - vlen
    # a run starts wherever the (positive) count differs from the one before
    cuts = [*np.flatnonzero(np.diff(vlen, prepend=-1)).tolist(), len(vlen)]
    return vstart, [(int(vstart[a]), b - a, int(vlen[a])) for a, b in zip(cuts, cuts[1:])]


def _solve_group(
    subs: list[UniformHypergraph], opts: SpectralOptions
) -> list[tuple[float, np.ndarray, int, tuple[float, float], bool]]:
    """_finish_component's result for each of one or more connected
    components of one rank, all with edges, bit for bit as if each were
    solved alone, stepped together while two or more are open.

    The components lie end to end in one block-diagonal layout, sorted by
    vertex count. Each step is _power_step on the whole layout: every
    elementwise operation rounds as it does per component, the kernel adds
    each vertex's terms in its component's edge order, the ratio bounds come
    from the exact minimum.reduceat and maximum.reduceat, and the r-norms are
    row sums of each run of equally sized components, a (count, size) array
    whose row sums equal the sums of the rows, with the root taken per row as
    a Python float. Every component of the group has the same shift
    fraction, so sigma_v is rebuilt only when the layout changes. A
    component is dropped at the step it converges. Once fewer than two are
    open, or after min(_NEWTON_AFTER, max_iterations) steps, every component
    goes to _finish_component with its measured state (x, y, lo, hi) and
    step count.
    """
    r = subs[0].r
    root, inv_r = 1.0 / (r - 1), 1.0 / r
    tol = opts.tolerance
    budget = min(_NEWTON_AFTER, opts.max_iterations)
    order = sorted(range(len(subs)), key=lambda c: subs[c].n)
    ids = np.array(order)
    vlen = np.array([subs[c].n for c in order])
    elen = np.array([subs[c].m for c in order])
    degree = np.array([subs[c].degree_array.max() for c in order], dtype=np.float64)
    sigma = degree * _shift_fraction(r)
    local = np.concatenate([subs[c].edge_array for c in order])
    x = np.repeat([n ** (-1.0 / r) for n in vlen.tolist()], vlen)
    handed: list = [(None, 0)] * len(subs)
    step = 0
    vstart, runs = _layout(vlen)
    moved = True
    while len(ids) > 1 and step < budget:
        if step:
            x = y**root
            xr = x**r
            sums = np.concatenate(
                [xr[v0 : v0 + k * size].reshape(k, size).sum(axis=1) for v0, k, size in runs]
            )
            x /= np.repeat([total**inv_r for total in sums.tolist()], vlen)
        step += 1
        if moved:
            edges = local + np.repeat(vstart, elen)[:, None]
            apply = _kernel(edges, x.shape[0])
            sigma_v = np.repeat(sigma, vlen)
            moved = False
        y, ratios = _shifted_ratios(apply, x, sigma_v, r)
        lo = np.minimum.reduceat(ratios, vstart)
        hi = np.maximum.reduceat(ratios, vstart)
        done = hi - lo <= tol * np.maximum(1.0, hi)
        if done.any():
            for j in np.flatnonzero(done).tolist():
                v0, v1 = int(vstart[j]), int(vstart[j] + vlen[j])
                state = (x[v0:v1].copy(), y[v0:v1].copy(), float(lo[j]), float(hi[j]))
                handed[ids[j]] = (state, step)
            keep = ~done
            local = np.compress(np.repeat(keep, elen), local, axis=0)
            kept = np.repeat(keep, vlen)
            x, y = x[kept], y[kept]
            ids, vlen, elen = ids[keep], vlen[keep], elen[keep]
            sigma, lo, hi = sigma[keep], lo[keep], hi[keep]
            vstart, runs = _layout(vlen)
            moved = True
    if step:
        cuts = np.cumsum(vlen)[:-1]
        for c, x_c, y_c, lo_c, hi_c in zip(
            ids.tolist(), np.split(x, cuts), np.split(y, cuts), lo.tolist(), hi.tolist()
        ):
            handed[c] = ((x_c, y_c, lo_c, hi_c), step)
    return [_finish_component(sub, opts, *h) for sub, h in zip(subs, handed)]


def _spectral_radii(
    hypergraphs: list[UniformHypergraph], opts: SpectralOptions | None = None
) -> list[SpectralResult]:
    """spectral_radius of each hypergraph, with the components of equal
    rank of all of them solved together by _solve_group.

    Components draw nothing at random and do not interact, so every result
    equals that of a separate call bit for bit.
    """
    if opts is None:
        opts = SpectralOptions()
    parts = [components(H) for H in hypergraphs]
    by_rank: dict[int, list[tuple[int, int]]] = {}
    solved: dict[tuple[int, int], tuple] = {}
    for h, comps in enumerate(parts):
        for c, (_, sub) in enumerate(comps):
            if sub.m:
                by_rank.setdefault(sub.r, []).append((h, c))
            else:
                solved[h, c] = (0.0, np.ones(sub.n), 0, (0.0, 0.0), True)
    for keys in by_rank.values():
        solved.update(zip(keys, _solve_group([parts[h][c][1] for h, c in keys], opts)))
    return [
        _assemble(H, comps, [solved[h, c] for c in range(len(comps))], opts)
        for h, (H, comps) in enumerate(zip(hypergraphs, parts))
    ]


def _assemble(
    H: UniformHypergraph,
    comps: list[tuple[tuple[int, ...], UniformHypergraph]],
    solutions: list[tuple[float, np.ndarray, int, tuple[float, float], bool]],
    opts: SpectralOptions,
) -> SpectralResult:
    """The SpectralResult of H from the solutions of its components, solved
    at ``opts``."""
    perron = np.zeros(H.n, dtype=np.float64)
    for (verts, _), (_, x_c, _, _, _) in zip(comps, solutions):
        perron[np.asarray(verts, dtype=np.int64) - 1] = x_c
    rhos = tuple(s[0] for s in solutions)
    brackets = [s[3] for s in solutions]
    return SpectralResult(
        rho=max(rhos),
        perron_vector=perron,
        iterations=sum(s[2] for s in solutions),
        converged=all(s[4] for s in solutions),
        component_rhos=rhos,
        bracket=(max(b[0] for b in brackets), max(b[1] for b in brackets)),
        options=opts,
    )


def spectral_radius(
    H: UniformHypergraph, opts: SpectralOptions | None = None
) -> SpectralResult:
    """Spectral radius of the adjacency tensor, solved per connected component.

    The radius of the whole hypergraph is the maximum over its components;
    edgeless components contribute 0 without iterating. On non-convergence
    the best bracket is reported with ``converged=False`` instead of raising.
    """
    return _spectral_radii([H], opts)[0]
