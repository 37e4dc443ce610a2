"""Adjacency-tensor application and spectral radius of r-uniform hypergraphs.

The adjacency tensor of an r-uniform hypergraph carries 1/(r-1)! on every
permutation of every edge, so applying it to a vector collapses to one
product per incident edge:

    (A x)_i = sum over edges e containing i of prod_{j in e, j != i} x_j.

The kernel that applies it is built once per edge array, with its buffers:
once per batched layout, and once per component that the batch leaves open,
whose power, Newton and fallback phases all reuse it. A large kernel of
rank 3 or more, in a process that may use two or more CPUs, gathers and
multiplies the first half of its edge rows on one helper thread while the
calling thread does the second half; the one bincount over all terms then
runs as before. The products are elementwise and each vertex's terms are
still added in edge order, so the split moves no bit of any result.

The spectral radius is the largest eigenvalue of A in the sense
A x = lambda x^[r-1], computed here per connected component by a shifted
power iteration (Ng, Qi and Zhou, SIAM J. Matrix Anal. Appl. 31, 2009) on
A + sigma I, with sigma = D * _SHIFT for the component's maximum degree D.
The shift keeps the iteration strictly positive and makes it converge on a
connected component (see SpectralOptions). The min/max ratio bracket of
A + sigma I, shifted back by sigma, is the stopping criterion and the
certified error bound; its tolerance is relative to rho + sigma. The
rounding pad of the bracket is keyed on D, not on sigma.

The power iteration contracts at about 1 - O(1/k^2) per step on a loose path
with k edges, so a component that has not converged after _NEWTON_AFTER
iterations continues with safeguarded Newton-Noda steps (Liu, Guo and Lin,
Numer. Math. 137, 2017), each a conjugate-gradient solve with a matrix-free
product. If a Newton step finds no acceptable candidate, the power iteration
takes over again for the rest of the budget. Both phases stop on the same
ratio bracket, which stays the only certificate.

Components do not interact, so while two or more components of one rank,
across all the hypergraphs of one _spectral_radii call, are open, their power
iterations run together in one block-diagonal layout that gives each the bits
it gets alone; every component finishes in the per-component loop.
"""

from __future__ import annotations

import itertools
import numbers
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import UniformHypergraph, _as_id, components

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "SpectralOptions",
    "SpectralResult",
    "apply_adjacency",
    "residual",
    "spectral_radius",
]

# Power iterations before a component that has not converged switches to
# Newton-Noda steps. The components of random and fuzzed instances converge
# within a few hundred, so their results are those of the power iteration
# alone; a loose path with k edges needs about k^2 (k = 250: over 100,000).
_NEWTON_AFTER = 1000
# Step halvings a Newton step may try before it is rejected.
_HALVINGS = 10
# Conjugate gradients stop at this relative residual, or after this many
# steps per vertex. A loose solve slows Newton but cannot move the
# certificate, which is the ratio bracket of whatever iterate is accepted.
_CG_TOL = 1e-8
_CG_STEPS_PER_VERTEX = 4
# The power iteration shifts each component by this fraction of its maximum
# degree D (see SpectralOptions). A quarter halves the iterations of random
# instances against the whole of D; an eighth saves a little more on them but
# doubles those of non-regular bipartite graphs.
_SHIFT = 0.25
# A kernel of r >= 3 splits its gather and products between two threads from
# this many terms (m * r) on; handing half to the helper thread costs 35-90 us
# per apply. Per apply on a 2-vCPU VM, at average degree 10 r, the split lost
# at 60k terms (r = 3: 321 -> 340 us), broke even near 90k and won from 131k
# on (r = 3: 641 -> 596 us, r = 4: 929 -> 679 us; 180k terms at r = 3:
# 1015 -> 816 us). r = 2 has no products, only its gather would split, and it
# never won up to 600k terms.
_SPLIT_TERMS = 1 << 17
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

    The diagonal shift is not a setting: sigma is a fixed fraction, _SHIFT,
    of the component's maximum degree. Any sigma > 0 makes the power
    iteration converge on a connected component. The adjacency tensor of a
    uniform hypergraph is weakly irreducible exactly when the hypergraph is
    connected (Pearson and Zhang, Graphs Combin. 30, 2014). Adding sigma > 0
    on the diagonal adds a positive diagonal to its irreducible
    representative matrix, which makes that matrix primitive, so A + sigma I
    is weakly primitive; and for a weakly primitive nonnegative tensor the
    normalized power iteration converges to the positive eigenvector
    (Friedland, Gaubert and Han, Linear Algebra Appl. 438, 2013, where both
    notions are defined). That says nothing about the rate: a large sigma
    pulls every eigenvalue ratio toward 1, and a small one slows bipartite
    graphs. For r = 2 the iteration is the power method on A + sigma I, and
    a bipartite graph puts its eigenvalue sigma - rho close to rho + sigma in
    modulus when sigma is small.
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
    the true value (min/max eigenvalue-ratio bounds from the final iterate,
    maxed over components), so ``certified_error`` is a rigorous error bound.
    ``perron_vector`` is positive and unit in the r-norm on each component
    separately; ``residual`` is measured on the component attaining rho.
    """

    rho: float
    perron_vector: np.ndarray
    iterations: int
    residual: float
    converged: bool
    component_rhos: tuple[float, ...]
    bracket: tuple[float, float]

    @property
    def certified_error(self) -> float:
        return 0.5 * (self.bracket[1] - self.bracket[0])


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The one helper thread of every split kernel, made at the first one, with
# the id of the process that made it: a forked child inherits the pool but not
# its thread, so it makes its own. Each fork takes the lock first and both
# sides release it after, so no child inherits it held by another thread. The
# fork hooks are the lock's own methods: a hook that held this module would
# keep every copy of it imported afresh, with its helper thread, alive.
_helper: tuple[int, ThreadPoolExecutor] | None = None
_helper_lock = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_helper_lock.acquire,
        after_in_parent=_helper_lock.release,
        after_in_child=_helper_lock.release,
    )


def _helper_pool() -> ThreadPoolExecutor:
    global _helper
    pid = os.getpid()
    with _helper_lock:
        if _helper is None or _helper[0] != pid:
            # imported here: concurrent.futures brings logging with it, about
            # 10 ms of import that inputs which never split would pay
            from concurrent.futures import ThreadPoolExecutor

            _helper = (pid, ThreadPoolExecutor(1, "hgirr-kernel"))
        return _helper[1]


def _kernel(edges: np.ndarray, n: int):
    """apply(x) = (A x)_i for one 0-based (m, r) edge array on n vertices.

    The buffers and the list of products are made here once; a call of
    apply gathers x, multiplies in place, scatters by bincount and returns a
    fresh array. Column j of the (m, r)
    product buffer gets the prefix x_0 * ... * x_(j-1), multiplied left to
    right, times the suffix x_(r-1) * ... * x_(j+1), multiplied right to
    left; the running suffix is kept in column 0, which ends as the whole
    suffix. No product is divided back out, so x may have zero entries. For
    r = 2 each product is the other member's entry alone, so the gather
    reads the columns swapped straight into the product buffer.

    A kernel of r >= 3 and at least _SPLIT_TERMS terms, in a process that
    may run on two or more CPUs, splits the gather and the products by edge
    rows: the helper thread does the first half of the rows while the
    calling thread does the second, and the calling thread then scatters all
    terms by the one bincount. numpy's take and multiply release the GIL, so
    the halves run at once. Both halves are made by one builder, every
    product is elementwise and the bincount is the same, so a split kernel
    returns the bits of a serial one."""
    m, r = edges.shape
    if m == 0:
        return lambda x: np.zeros(n, dtype=np.float64)
    # np.bincount copies a read-only index array on every call (numpy asks
    # for a writeable one), so the kernel keeps a writable one
    index = np.ascontiguousarray(edges).ravel()
    if not index.flags.writeable:
        index = index.copy()
    out = np.empty((m, r))
    weights = out.ravel()
    if r == 2:
        source, gathered = edges[:, ::-1].ravel(), out
    else:
        source, gathered = index, np.empty((m, r))
    flat = gathered.ravel()
    multiply = np.multiply

    def part(a: int, b: int):
        """Gather and products of edge rows a..b-1, as run(x)."""
        v = [gathered[a:b, j] for j in range(r)]
        c = [out[a:b, j] for j in range(r)]
        products = [(c[j - 1] if j > 2 else v[0], v[j - 1], c[j]) for j in range(2, r)]
        suffix = v[r - 1]
        for j in range(r - 2, 0, -1):
            products += [(c[j] if j > 1 else v[0], suffix, c[j]), (suffix, v[j], c[0])]
            suffix = c[0]
        rows, into = source[a * r : b * r], flat[a * r : b * r]

        def run(x: np.ndarray) -> None:
            # mode="clip" gathers straight into the buffer, where the default
            # mode="raise" makes numpy gather into a temporary first.
            # Clipping changes nothing only because every edge array that
            # reaches a kernel belongs to a validated UniformHypergraph
            # (0 <= id < n) and x has length n.
            x.take(rows, None, into, "clip")
            for left, right, result in products:
                multiply(left, right, result)

        return run

    if r < 3 or m * r < _SPLIT_TERMS or _cpus() < 2:
        run = part(0, m)

        def apply(x: np.ndarray) -> np.ndarray:
            run(x)
            return np.bincount(index, weights, n)

        return apply

    first, second = part(0, m // 2), part(m // 2, m)

    def apply(x: np.ndarray) -> np.ndarray:
        done = _helper_pool().submit(first, x)
        try:
            second(x)
        finally:
            # the helper writes the shared buffers until its half is done
            done.result()
        return np.bincount(index, weights, n)

    return apply


def apply_adjacency(H: UniformHypergraph, x) -> np.ndarray:
    """(A x)_i = sum over edges containing i of the product of the other entries."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (H.n,):
        raise ValueError(f"expected a vector of length {H.n}, got shape {x.shape}")
    return _kernel(H.edge_array, H.n)(x)


def residual(H: UniformHypergraph, rho: float, x) -> float:
    """max_i |(A x)_i - rho * x_i^(r-1)|, relative to max(1, rho)."""
    x = np.asarray(x, dtype=np.float64)
    ax = apply_adjacency(H, x)
    gap = np.max(np.abs(ax - rho * x ** (H.r - 1)))
    return float(gap / max(1.0, rho))


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


def _power_steps(
    apply, x: np.ndarray, sigma: float, r: int, tol: float, budget: int
) -> tuple[np.ndarray, float, float, int, bool]:
    """Up to ``budget`` (>= 1) shifted power iterations (Ng-Qi-Zhou) from x,
    with A x from the _kernel ``apply``.

    Each takes the ratios of x, then moves x to the renormalized (r-1)-th root
    of y; it stops once the ratios are relatively narrower than ``tol``.
    Returns (x, lo, hi, iterations, converged): lo and hi are the shifted
    ratio bounds of the iterate before the last update."""
    root = 1.0 / (r - 1)
    lo = hi = 0.0
    steps = 0
    for steps in range(1, budget + 1):
        y, ratios = _shifted_ratios(apply, x, sigma, r)
        lo = float(_min(ratios))
        hi = float(_max(ratios))
        x = y**root
        x /= _norm_r(x, r)
        if hi - lo <= tol * max(1.0, hi):
            return x, lo, hi, steps, True
    return x, lo, hi, steps, False


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
    """The Newton-Noda correction of x at the upper ratio ``lam`` of A.

    Solves (lam D - B(x)) y = x^[r-1], D = diag(x^(r-2)), by Jacobi
    preconditioned conjugate gradients, and returns ((r-2) x + y / <x^[r-1],
    y>)/(r-1) - x; None when the solve gives no usable direction. The matrix
    is a symmetric M-matrix while lam exceeds rho, but rounding can break
    that near convergence, so the caller checks every candidate."""
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


def _newton_steps(
    apply, edges: np.ndarray, x: np.ndarray, sigma: float, r: int, tol: float, budget: int
) -> tuple[np.ndarray, float, float, int, bool]:
    """Up to ``budget`` safeguarded Newton-Noda steps from x, with A x from
    ``apply``, the _kernel of ``edges``.

    A step tries x + theta * delta for theta = 1, 1/2, ..., 2^-_HALVINGS and
    takes the first candidate that is positive and whose upper ratio does not
    rise. When none qualifies, or the solve gives no direction, the phase ends
    early, unconverged, at the last accepted iterate.
    Returns (x, lo, hi, steps, converged) with lo and hi the shifted ratio
    bounds of the returned x itself."""
    _, ratios = _shifted_ratios(apply, x, sigma, r)
    lo, hi = float(_min(ratios)), float(_max(ratios))
    steps = 0
    while hi - lo > tol * max(1.0, hi):
        if steps == budget:
            return x, lo, hi, steps, False
        delta = _newton_step(edges, x, hi - sigma, r)
        if delta is None:
            return x, lo, hi, steps, False
        for halvings in range(_HALVINGS + 1):
            cand = x + 0.5**halvings * delta
            if not (cand > 0).all():
                continue
            cand /= _norm_r(cand, r)
            _, ratios = _shifted_ratios(apply, cand, sigma, r)
            if float(_max(ratios)) <= hi:
                break
        else:
            return x, lo, hi, steps, False
        x, lo, hi = cand, float(_min(ratios)), float(_max(ratios))
        steps += 1
    return x, lo, hi, steps, True


def _certified_bracket(
    lo: float, hi: float, sigma: float, degree: int, r: int
) -> tuple[float, float]:
    """The certified bracket of rho from the min and max, lo and hi, of the
    ratios (A x)_i / x_i^(r-1) + sigma on a hypergraph of rank r and maximum
    degree D = ``degree``: shifted back by sigma and padded.

    The ratio evaluation itself rounds, so the enclosure must be padded
    before the bracket can be called certified. Each ratio is a sequential
    bincount sum of d_i products of r - 1 positive factors, plus the shift
    term, divided once: fewer than D + 2r + 4 roundings."""
    noise = _gamma(degree + 2 * r + 4) * max(1.0, hi)
    return lo - sigma - noise, hi - sigma + noise


def _finish_component(
    sub: UniformHypergraph,
    opts: SpectralOptions,
    x: np.ndarray,
    lo: float,
    hi: float,
    iterations: int,
    converged: bool,
) -> tuple[float, np.ndarray, int, tuple[float, float], bool]:
    """Certified spectral radius of the connected component ``sub``,
    continued from the state (x, lo, hi, iterations, converged) in which
    _solve_group hands it over: x after ``iterations`` power iterations, lo
    and hi the shifted ratio bounds of the last. Its shift is sigma = D *
    _SHIFT for its maximum degree D.

    An open component runs power iterations up to min(_NEWTON_AFTER,
    max_iterations) in all, then safeguarded Newton-Noda steps; if a step
    finds no acceptable candidate, the power iteration takes the rest of the
    budget from the last accepted iterate, and Newton is not tried again.
    Every phase shares one kernel, built only if the component is open with
    budget left. Returns (rho, perron vector, iterations, bracket,
    converged), the bracket from _certified_bracket, iterations counting
    Newton steps too.
    """
    tol, budget = opts.tolerance, opts.max_iterations
    r, degree = sub.r, int(sub.degree_array.max())
    sigma = degree * _SHIFT
    if not converged and iterations < budget:
        edges = sub.edge_array
        apply = _kernel(edges, sub.n)
        first = min(_NEWTON_AFTER, budget)
        if iterations < first:
            x, lo, hi, steps, converged = _power_steps(
                apply, x, sigma, r, tol, first - iterations
            )
            iterations += steps
        if not converged and iterations < budget:
            x, lo, hi, steps, converged = _newton_steps(
                apply, edges, x, sigma, r, tol, budget - iterations
            )
            iterations += steps
            if not converged and iterations < budget:
                x, lo, hi, steps, converged = _power_steps(
                    apply, x, sigma, r, tol, budget - iterations
                )
                iterations += steps
    bracket = _certified_bracket(lo, hi, sigma, degree, r)
    return 0.5 * (lo + hi) - sigma, x, iterations, bracket, converged


def _solve_group(
    subs: list[UniformHypergraph], opts: SpectralOptions
) -> list[tuple[float, np.ndarray, int, tuple[float, float], bool]]:
    """_finish_component's result for each of one or more connected
    components of one rank, all with edges, bit for bit as if each were
    solved alone, stepped together while two or more are open.

    The components lie end to end in one block-diagonal layout, sorted by
    vertex count. Each step is _power_steps' step on the whole layout:
    every elementwise operation rounds as it does per component, bincount
    adds each vertex's terms in its component's edge order, the ratio bounds
    come from the exact minimum.reduceat and maximum.reduceat, and the
    r-norms are row sums of each run of equally sized components, a
    (count, size) array whose row sums equal the sums of the rows, with the
    root taken per row as a Python float. A component is saved and dropped
    at the step it converges; once fewer than two are open, or after
    min(_NEWTON_AFTER, max_iterations) steps, the open ones go on alone in
    _finish_component from their iterates and step count.
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
    lo = hi = np.zeros(len(subs))
    local = np.concatenate([subs[c].edge_array for c in order])
    x = np.repeat([n ** (-1.0 / r) for n in vlen.tolist()], vlen)
    states: list = [None] * len(subs)
    step = 0
    moved = True
    while len(ids) > 1 and step < budget:
        step += 1
        if moved:
            vstart = np.cumsum(vlen) - vlen
            edges = local + np.repeat(vstart, elen)[:, None]
            apply = _kernel(edges, x.shape[0])
            sigma_v = np.repeat(degree * _SHIFT, vlen)
            cuts = [0, *(np.flatnonzero(np.diff(vlen)) + 1).tolist(), len(vlen)]
            runs = [(int(vstart[a]), b - a, int(vlen[a])) for a, b in zip(cuts, cuts[1:])]
            moved = False
        y, ratios = _shifted_ratios(apply, x, sigma_v, r)
        lo = np.minimum.reduceat(ratios, vstart)
        hi = np.maximum.reduceat(ratios, vstart)
        x = y**root
        xr = x**r
        sums = np.concatenate(
            [xr[v0 : v0 + k * size].reshape(k, size).sum(axis=1) for v0, k, size in runs]
        )
        x /= np.repeat([total**inv_r for total in sums.tolist()], vlen)
        done = hi - lo <= tol * np.maximum(1.0, hi)
        if done.any():
            for j in np.flatnonzero(done).tolist():
                v0 = int(vstart[j])
                x_j = x[v0 : v0 + vlen[j]].copy()
                states[ids[j]] = (x_j, float(lo[j]), float(hi[j]), step, True)
            keep = ~done
            local = np.compress(np.repeat(keep, elen), local, axis=0)
            x = x[np.repeat(keep, vlen)]
            ids, vlen, elen = ids[keep], vlen[keep], elen[keep]
            degree, lo, hi = degree[keep], lo[keep], hi[keep]
            moved = True
    pieces = np.split(x, np.cumsum(vlen)[:-1])
    for c, x_c, lo_c, hi_c in zip(ids, pieces, lo, hi):
        states[c] = (x_c, float(lo_c), float(hi_c), step, False)
    return [_finish_component(sub, opts, *state) for sub, state in zip(subs, states)]


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
        _assemble(H, comps, [solved[h, c] for c in range(len(comps))])
        for h, (H, comps) in enumerate(zip(hypergraphs, parts))
    ]


def _assemble(
    H: UniformHypergraph,
    comps: list[tuple[tuple[int, ...], UniformHypergraph]],
    solutions: list[tuple[float, np.ndarray, int, tuple[float, float], bool]],
) -> SpectralResult:
    """The SpectralResult of H from the solutions of its components."""
    perron = np.zeros(H.n, dtype=np.float64)
    best: tuple[float, UniformHypergraph, np.ndarray] | None = None
    for (verts, sub), (rho_c, x_c, _, _, _) in zip(comps, solutions):
        perron[np.asarray(verts, dtype=np.int64) - 1] = x_c
        if best is None or rho_c > best[0]:
            best = (rho_c, sub, x_c)
    brackets = [s[3] for s in solutions]
    return SpectralResult(
        rho=best[0],
        perron_vector=perron,
        iterations=sum(s[2] for s in solutions),
        residual=residual(best[1], best[0], best[2]),
        converged=all(s[4] for s in solutions),
        component_rhos=tuple(s[0] for s in solutions),
        bracket=(max(b[0] for b in brackets), max(b[1] for b in brackets)),
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
