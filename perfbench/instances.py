"""Seeded benchmark inputs and their reference spectral radii.

The inputs come from this module's own numpy code, never from the package's
generators, so a change to the package's random streams cannot move them.
Each reference is computed without the package: random instances by an
independent shifted power iteration with its Collatz-Wielandt bracket, loose
paths by a closed form.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Instance:
    """One generated hgr file: its 1-based (m, r) edge array and metadata."""

    label: str
    r: int
    n: int
    edges: np.ndarray
    class_of: np.ndarray | None = None
    path: Path | None = None
    data: bytes = field(default=b"", repr=False)
    sha256: str = ""
    path_edges: int | None = None
    reference: tuple[float, float] | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel() - 1, minlength=self.n)

    def encode(self, directory: Path) -> None:
        """Format the hgr text (edges in generated order), record its SHA-256
        and the path ``write`` puts it at."""
        lines = [f"hgr {self.r} {self.n} {self.m}"]
        lines.extend(" ".join(map(str, row)) for row in self.edges.tolist())
        if self.class_of is not None:
            lines.append("partition " + " ".join(map(str, self.class_of.tolist())))
        self.data = ("\n".join(lines) + "\n").encode("ascii")
        self.path = directory / f"{self.label}.hgr"
        self.sha256 = hashlib.sha256(self.data).hexdigest()

    def write(self) -> None:
        self.path.write_bytes(self.data)


def uniform(rng: np.random.Generator, label: str, r: int, n: int, m: int) -> Instance:
    """m distinct r-subsets of 1..n, uniformly chosen, in random order."""
    if m > math.comb(n, r) // 2:
        raise ValueError(f"m={m} too dense for n={n}, r={r}")
    pool = np.empty((0, r), dtype=np.int64)
    while pool.shape[0] < m:
        draw = np.sort(rng.integers(1, n + 1, size=(2 * (m - pool.shape[0]) + 16, r)), axis=1)
        draw = draw[(np.diff(draw, axis=1) > 0).all(axis=1)]
        pool = np.unique(np.vstack([pool, draw]), axis=0)
    return Instance(label, r, n, pool[rng.permutation(pool.shape[0])[:m]])


def partite(rng: np.random.Generator, label: str, sizes: tuple[int, ...], m: int) -> Instance:
    """m distinct transversals over consecutive classes, with the partition inline."""
    codes = rng.choice(math.prod(sizes), size=m, replace=False)
    offsets = np.cumsum((0,) + sizes[:-1])
    columns = []
    for size, offset in zip(sizes, offsets):
        columns.append(offset + codes % size + 1)
        codes = codes // size
    class_of = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    return Instance(label, len(sizes), sum(sizes), np.stack(columns, axis=1), class_of)


def loose_path(rng: np.random.Generator, label: str, k: int) -> Instance:
    """3-uniform loose path {2i-1, 2i, 2i+1}, i = 1..k, under a seeded relabeling."""
    n = 2 * k + 1
    base = np.arange(1, 2 * k, 2)
    edges = np.stack([base, base + 1, base + 2], axis=1)
    relabel = rng.permutation(n) + 1
    edges = np.sort(relabel[edges - 1], axis=1)[rng.permutation(k)]
    return Instance(label, 3, n, edges, path_edges=k)


REFERENCE_TOL = 1e-13
REFERENCE_MAX_ITERATIONS = 20_000


def reference_bracket(inst: Instance) -> tuple[float, float]:
    """A certified enclosure [lo, hi] of the spectral radius of ``inst``.

    The loose path is the 3rd power of the path graph on k+1 vertices, whose
    radius is (2 cos(pi/(k+2)))^(2/3) (Zhou, Sun, Wang and Bu, Electron. J.
    Combin. 21, 2014). Every other instance runs its own shifted power
    iteration y = A x + sigma x^[r-1]; for positive x the min and max of
    (A x)_i / x_i^(r-1) enclose the radius of any nonnegative tensor.
    """
    if inst.path_edges is not None:
        rho = (2.0 * math.cos(math.pi / (inst.path_edges + 2))) ** (2.0 / 3.0)
        pad = 1e-14 * rho
        return rho - pad, rho + pad
    r, n = inst.r, inst.n
    edges = inst.edges - 1
    sigma = float(np.bincount(edges.ravel(), minlength=n).max())
    x = np.ones(n)
    lo, hi = 0.0, math.inf
    for _ in range(REFERENCE_MAX_ITERATIONS):
        xp = x ** (r - 1)
        prods = np.repeat(x[edges].prod(axis=1), r)
        ax = np.bincount(edges.ravel(), weights=prods, minlength=n) / x
        y = ax + sigma * xp
        ratios = ax / xp
        lo, hi = max(lo, float(ratios.min())), min(hi, float(ratios.max()))
        if hi - lo <= REFERENCE_TOL * max(1.0, hi):
            break
        x = y ** (1.0 / (r - 1))
        x /= x.max()
    # Each ratio rounds in O(r + log2 max degree) operations.
    pad = 1e-12 * max(1.0, hi)
    return lo - pad, hi + pad
