"""Shared test utilities.

``dense_rho`` is an independent oracle: it materializes the full order-r
adjacency tensor as a numpy array and runs a shifted power iteration using
plain tensor contractions, touching none of the package's kernels. Only
usable for tiny connected instances.

``reference_rewire`` is the original sort-and-scan rewiring: after every swap
it re-sorts the whole edge set and scans it for the first admissible edge.
It fixes the tie-break rule that ``hgirr.irregularity._rewire`` must keep.

``reference_apply_adjacency_edges`` (row-wise cumprod prefix/suffix kernel)
and ``reference_components`` (breadth-first search over incidence lists) are
the earlier implementations of ``hgirr.spectral._apply_adjacency_edges`` and
``hgirr.components``. Their replacements must match them bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque

import numpy as np

from hgirr import EdgeTrace, UniformHypergraph


def coupled_tol(*results, base: float = 1e-9) -> float:
    """Check tolerance widened by the certified error of the solves involved."""
    return 10.0 * (sum(r.certified_error for r in results) + base)


def dense_adjacency(H) -> np.ndarray:
    A = np.zeros((H.n,) * H.r)
    weight = 1.0 / math.factorial(H.r - 1)
    for edge in H.edges:
        for perm in itertools.permutations(v - 1 for v in edge):
            A[perm] = weight
    return A


def dense_rho(H, iters: int = 20000) -> float:
    """Power iteration over the materialized tensor (connected H only)."""
    if H.m == 0:
        return 0.0
    n, r = H.n, H.r
    A = dense_adjacency(H)
    counts = Counter(v for edge in H.edges for v in edge)
    sigma = float(max(counts.values()))
    x = np.full(n, n ** (-1.0 / r))
    lo = hi = 0.0
    for _ in range(iters):
        y = A
        for _ in range(r - 1):
            y = y @ x
        y = y + sigma * x ** (r - 1)
        ratios = y / x ** (r - 1)
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        x = y ** (1.0 / (r - 1))
        x /= float(np.sum(x**r)) ** (1.0 / r)
    return 0.5 * (lo + hi) - sigma


def _reference_find_swap(sorted_edges, edge_set, receiver, donor):
    """First edge in canonical order through the donor but not the receiver
    whose rewired version is not already present."""
    for edge in sorted_edges:
        if donor in edge and receiver not in edge:
            candidate = tuple(sorted([v for v in edge if v != donor] + [receiver]))
            if candidate not in edge_set:
                return edge, candidate
    return None


def reference_rewire(H, groups):
    """Rewire edges until, within each group of vertex ids, all degrees lie
    within a band of width 1, re-sorting the edge set after every swap."""
    deg = H.degree_array.tolist()
    edge_set = set(H.edges)
    sorted_edges = sorted(edge_set)
    swaps = []
    for members in groups:
        if len(members) < 2:
            continue
        while True:
            group_degrees = [deg[v - 1] for v in members]
            dmin = min(group_degrees)
            dmax = max(group_degrees)
            if dmax - dmin < 2:
                break
            receiver = members[group_degrees.index(dmin)]
            donor = members[group_degrees.index(dmax)]
            found = _reference_find_swap(sorted_edges, edge_set, receiver, donor)
            if found is None:
                raise RuntimeError(
                    f"no swappable edge from vertex {donor} to vertex {receiver}; "
                    "this indicates a bug, such an edge must exist"
                )
            removed, inserted = found
            edge_set.remove(removed)
            edge_set.add(inserted)
            sorted_edges = sorted(edge_set)
            deg[donor - 1] -= 1
            deg[receiver - 1] += 1
            swaps.append((removed, inserted))
    if not swaps:
        return H, EdgeTrace(())
    return UniformHypergraph(H.r, H.n, tuple(sorted(edge_set))), EdgeTrace(tuple(swaps))


def reference_apply_adjacency_edges(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(A x)_i over a 0-based (m, r) edge array: per-edge prefix/suffix
    products of the other members' entries, scattered by bincount. No product
    is divided back out, so x may have zero entries."""
    n = x.shape[0]
    m, r = edges.shape
    if m == 0:
        return np.zeros(n, dtype=np.float64)
    vals = x[edges]
    prefix = np.ones((m, r))
    suffix = np.ones((m, r))
    np.cumprod(vals[:, :-1], axis=1, out=prefix[:, 1:])
    suffix[:, :-1] = np.cumprod(vals[:, :0:-1], axis=1)[:, ::-1]
    contrib = prefix * suffix
    return np.bincount(edges.ravel(), weights=contrib.ravel(), minlength=n)


def reference_components(H):
    """Decompose into connected components by breadth-first search: (vertex
    subset, relabeled subhypergraph) pairs ordered by smallest vertex."""
    incident: list[list[int]] = [[] for _ in range(H.n + 1)]
    for idx, edge in enumerate(H.edges):
        for v in edge:
            incident[v].append(idx)

    seen_vertex = [False] * (H.n + 1)
    out = []
    for start in range(1, H.n + 1):
        if seen_vertex[start]:
            continue
        verts: list[int] = []
        edge_ids: set[int] = set()
        queue = deque([start])
        seen_vertex[start] = True
        while queue:
            v = queue.popleft()
            verts.append(v)
            for idx in incident[v]:
                if idx in edge_ids:
                    continue
                edge_ids.add(idx)
                for w in H.edges[idx]:
                    if not seen_vertex[w]:
                        seen_vertex[w] = True
                        queue.append(w)
        verts.sort()
        rank_of = {v: i + 1 for i, v in enumerate(verts)}
        sub_edges = sorted(
            tuple(rank_of[v] for v in H.edges[idx]) for idx in sorted(edge_ids)
        )
        sub = UniformHypergraph(H.r, len(verts), tuple(sub_edges))
        out.append((tuple(verts), sub))
    return out
