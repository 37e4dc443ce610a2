"""Adjacency-tensor application and spectral radius of r-uniform hypergraphs.

The adjacency tensor of an r-uniform hypergraph carries 1/(r-1)! on every
permutation of every edge, so applying it to a vector collapses to one
product per incident edge:

    (A x)_i = sum over edges e containing i of prod_{j in e, j != i} x_j.

The spectral radius is the largest eigenvalue of A in the sense
A x = lambda x^[r-1], computed here per connected component by a shifted
power iteration. The shift keeps the iteration strictly positive and makes
the min/max ratio bracket converge on connected components; the bracket
provides a rigorous stopping criterion and a certified error bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UniformHypergraph, components

__all__ = [
    "SpectralOptions",
    "SpectralResult",
    "apply_adjacency",
    "residual",
    "spectral_radius",
]


@dataclass(frozen=True)
class SpectralOptions:
    """Solver knobs.

    ``tolerance``, in (0, 1), bounds the relative width of the eigenvalue
    bracket at convergence (a bracket as wide as rho itself certifies
    nothing); ``max_iterations`` caps the iterations per component. The
    diagonal shift is not a setting: it is always the component's maximum
    degree, which guarantees convergence on connected components.
    """

    tolerance: float = 1e-10
    max_iterations: int = 100_000

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not self.tolerance < 1:
            raise ValueError(f"tolerance must be below 1, got {self.tolerance}")
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


def _apply_adjacency_edges(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(A x)_i over a 0-based (m, r) edge array: per-edge prefix/suffix
    products of the other members' entries, scattered by bincount. No product
    is divided back out, so x may have zero entries.

    Column j of the (m, r) buffer gets the prefix x_0 * ... * x_(j-1),
    multiplied left to right, times the suffix x_(r-1) * ... * x_(j+1),
    multiplied right to left; the suffix of column 0 is written as is."""
    n = x.shape[0]
    m, r = edges.shape
    if m == 0:
        return np.zeros(n, dtype=np.float64)
    vals = x[edges]
    contrib = np.empty((m, r))
    contrib[:, 1] = vals[:, 0]
    for j in range(2, r):
        np.multiply(contrib[:, j - 1], vals[:, j - 1], out=contrib[:, j])
    suffix = vals[:, r - 1].copy()
    for j in range(r - 2, 0, -1):
        contrib[:, j] *= suffix
        suffix *= vals[:, j]
    contrib[:, 0] = suffix
    return np.bincount(edges.ravel(), weights=contrib.ravel(), minlength=n)


def apply_adjacency(H: UniformHypergraph, x) -> np.ndarray:
    """(A x)_i = sum over edges containing i of the product of the other entries."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (H.n,):
        raise ValueError(f"expected a vector of length {H.n}, got shape {x.shape}")
    return _apply_adjacency_edges(H.edge_array, x)


def residual(H: UniformHypergraph, rho: float, x) -> float:
    """max_i |(A x)_i - rho * x_i^(r-1)|, relative to max(1, rho)."""
    x = np.asarray(x, dtype=np.float64)
    ax = apply_adjacency(H, x)
    gap = np.max(np.abs(ax - rho * x ** (H.r - 1)))
    return float(gap / max(1.0, rho))


def _norm_r(x: np.ndarray, r: int) -> float:
    return float(np.sum(x**r) ** (1.0 / r))


def _solve_component(
    edges: np.ndarray, n: int, r: int, opts: SpectralOptions
) -> tuple[float, np.ndarray, int, tuple[float, float], bool]:
    """Shifted power iteration on one connected component.

    Iterates y = A x + sigma * x^[r-1] with sigma the component's maximum
    degree; for positive x the ratios y_i / x_i^(r-1) bracket rho + sigma,
    and x is updated to the renormalized (r-1)-th root of y. Stops when the
    bracket is relatively narrower than the tolerance. Returns (rho, perron
    vector, iterations, bracket, converged); the bracket is already shifted
    back.
    """
    if edges.shape[0] == 0:
        return 0.0, np.ones(n, dtype=np.float64), 0, (0.0, 0.0), True

    # np.bincount copies a read-only index array on every call (numpy asks
    # for a writeable one), so the iteration runs on one writable copy
    edges = edges.copy()
    deg = np.bincount(edges.ravel(), minlength=n)
    sigma = float(deg.max())

    x = np.full(n, n ** (-1.0 / r))
    root = 1.0 / (r - 1)
    lo = hi = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        xp = x ** (r - 1)
        y = _apply_adjacency_edges(edges, x) + sigma * xp
        ratios = y / xp
        lo = float(ratios.min())
        hi = float(ratios.max())
        x = y**root
        x /= _norm_r(x, r)
        if hi - lo <= opts.tolerance * max(1.0, hi):
            converged = True
            break
    # The ratio evaluation itself rounds, so the enclosure must be padded by
    # a machine-epsilon margin before the bracket can be called certified.
    noise = 32.0 * np.finfo(np.float64).eps * max(1.0, hi)
    bracket = (lo - sigma - noise, hi - sigma + noise)
    return 0.5 * (lo + hi) - sigma, x, iterations, bracket, converged


def spectral_radius(
    H: UniformHypergraph, opts: SpectralOptions | None = None
) -> SpectralResult:
    """Spectral radius of the adjacency tensor, solved per connected component.

    The radius of the whole hypergraph is the maximum over its components;
    edgeless components contribute 0 without iterating. On non-convergence
    the best bracket is reported with ``converged=False`` instead of raising.
    """
    if opts is None:
        opts = SpectralOptions()

    perron = np.zeros(H.n, dtype=np.float64)
    comp_rhos: list[float] = []
    brackets: list[tuple[float, float]] = []
    total_iters = 0
    all_converged = True
    best: tuple[float, UniformHypergraph, np.ndarray] | None = None

    for verts, sub in components(H):
        rho_c, x_c, iters, bracket, ok = _solve_component(
            sub.edge_array, sub.n, sub.r, opts
        )
        comp_rhos.append(rho_c)
        brackets.append(bracket)
        total_iters += iters
        all_converged = all_converged and ok
        perron[np.asarray(verts, dtype=np.int64) - 1] = x_c
        if best is None or rho_c > best[0]:
            best = (rho_c, sub, x_c)

    rho = max(comp_rhos)
    bracket = (max(b[0] for b in brackets), max(b[1] for b in brackets))
    res = residual(best[1], rho, best[2])
    return SpectralResult(
        rho=rho,
        perron_vector=perron,
        iterations=total_iters,
        residual=res,
        converged=all_converged,
        component_rhos=tuple(comp_rhos),
        bracket=bracket,
    )
