"""Canonical r-uniform hypergraphs and set-level edge operations.

Vertices are 1-based contiguous integers ``1..n``. Every edge is stored as a
strictly increasing tuple of r vertex ids and the edge list is kept sorted
lexicographically, so two hypergraphs compare equal exactly when they have the
same rank, vertex count, and edge set. Isolated vertices are legal.

All types here are immutable after construction; operations are pure
functions and safe to use from multiple threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

Edge = tuple[int, ...]

__all__ = [
    "Edge",
    "EdgeTrace",
    "HypergraphError",
    "Partition",
    "UniformHypergraph",
    "build",
    "components",
    "degrees",
    "first_partition_violation",
    "is_connected",
    "is_regular",
    "relabel",
    "symmetric_difference_size",
    "union_edges",
    "validate_partition",
]


class HypergraphError(ValueError):
    """Raised when input data violates a structural invariant."""


@dataclass(frozen=True, repr=False)
class UniformHypergraph:
    """An immutable r-uniform hypergraph with canonically sorted edges.

    Construct through :func:`build`, which validates and canonicalizes the
    input. Direct construction is reserved for internal callers that already
    hold canonical data (for example component decomposition, which may
    produce edgeless pieces with fewer than r vertices).
    """

    r: int
    n: int
    edges: tuple[Edge, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edges as an (m, r) int64 array of 0-based ids, for numeric kernels."""
        if not self.edges:
            return np.empty((0, self.r), dtype=np.int64)
        return np.asarray(self.edges, dtype=np.int64) - 1

    @cached_property
    def degree_array(self) -> np.ndarray:
        """Per-vertex edge counts as an int64 array of length n."""
        return np.bincount(self.edge_array.ravel(), minlength=self.n).astype(np.int64)

    def __repr__(self) -> str:
        return f"UniformHypergraph(r={self.r}, n={self.n}, m={self.m})"


@dataclass(frozen=True, repr=False)
class Partition:
    """Assignment of all vertices to classes 1..num_classes.

    ``class_of[i - 1]`` is the class of vertex i. Classes may be empty; for
    an r-partite hypergraph ``num_classes`` equals the rank.
    """

    class_of: tuple[int, ...]
    num_classes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_of", tuple(int(c) for c in self.class_of))
        if self.num_classes < 1:
            raise HypergraphError(f"need at least one class, got {self.num_classes}")
        for i, c in enumerate(self.class_of, 1):
            if not 1 <= c <= self.num_classes:
                raise HypergraphError(
                    f"vertex {i} assigned to class {c}, outside [1, {self.num_classes}]"
                )

    @property
    def n(self) -> int:
        return len(self.class_of)

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.num_classes
        for c in self.class_of:
            sizes[c - 1] += 1
        return tuple(sizes)

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Vertices of each class, ascending, indexed by class - 1."""
        members: list[list[int]] = [[] for _ in range(self.num_classes)]
        for v, c in enumerate(self.class_of, 1):
            members[c - 1].append(v)
        return tuple(tuple(ms) for ms in members)

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, sizes={self.class_sizes})"


@dataclass(frozen=True)
class EdgeTrace:
    """Ordered record of (removed, inserted) edge swaps.

    Each swap must remove an edge present before the swap and insert one
    absent before it; :meth:`apply` replays the trace and enforces this.
    """

    swaps: tuple[tuple[Edge, Edge], ...]

    def __len__(self) -> int:
        return len(self.swaps)

    def __iter__(self):
        return iter(self.swaps)

    def apply(self, H: UniformHypergraph) -> UniformHypergraph:
        """Replay the swaps against H and return the rewired hypergraph."""
        edge_set = set(H.edges)
        for removed, inserted in self.swaps:
            if removed not in edge_set:
                raise HypergraphError(f"trace removes missing edge {list(removed)}")
            if inserted in edge_set:
                raise HypergraphError(f"trace inserts existing edge {list(inserted)}")
            if len(inserted) != H.r:
                raise HypergraphError(f"trace inserts edge of size {len(inserted)}")
            edge_set.remove(removed)
            edge_set.add(inserted)
        return UniformHypergraph(H.r, H.n, tuple(sorted(edge_set)))


def build(
    r: int,
    n: int,
    edge_list: Iterable[Sequence[int]],
    dedupe: bool = False,
) -> UniformHypergraph:
    """Validate and canonicalize an edge list into a UniformHypergraph.

    Rejects edges of the wrong cardinality, repeated vertices within an edge,
    out-of-range vertex ids, and duplicate edges. With ``dedupe=True``
    repeated edges are silently collapsed instead of rejected.
    """
    if r < 2:
        raise HypergraphError(f"rank must be at least 2, got r={r}")
    if n < r:
        raise HypergraphError(f"need at least r={r} vertices, got n={n}")
    seen: set[Edge] = set()
    canonical: list[Edge] = []
    for pos, raw in enumerate(edge_list, 1):
        edge = tuple(int(v) for v in raw)
        if len(edge) != r:
            raise HypergraphError(
                f"edge #{pos} {list(edge)} has {len(edge)} vertices, expected {r}"
            )
        if len(set(edge)) != r:
            raise HypergraphError(f"edge #{pos} {list(edge)} has a repeated vertex")
        for v in edge:
            if not 1 <= v <= n:
                raise HypergraphError(
                    f"edge #{pos} {list(edge)}: vertex id {v} out of range [1, {n}]"
                )
        key = tuple(sorted(edge))
        if key in seen:
            if dedupe:
                continue
            raise HypergraphError(f"duplicate edge {list(key)} (edge #{pos})")
        seen.add(key)
        canonical.append(key)
    return UniformHypergraph(r, n, tuple(sorted(canonical)))


def degrees(H: UniformHypergraph) -> np.ndarray:
    """Number of edges containing each vertex; entries sum to r*m."""
    return H.degree_array.copy()


def is_regular(H: UniformHypergraph) -> bool:
    deg = H.degree_array
    return bool(deg.max() == deg.min())


def components(
    H: UniformHypergraph,
) -> list[tuple[tuple[int, ...], UniformHypergraph]]:
    """Decompose into connected components.

    Two vertices are connected when a chain of pairwise-intersecting edges
    links them. Returns (vertex subset, relabeled subhypergraph) pairs ordered
    by smallest original vertex; the subsets partition 1..n and the edge sets
    partition E(H). Isolated vertices become edgeless singleton components.
    """
    incident: list[list[int]] = [[] for _ in range(H.n + 1)]
    for idx, edge in enumerate(H.edges):
        for v in edge:
            incident[v].append(idx)

    seen_vertex = [False] * (H.n + 1)
    out: list[tuple[tuple[int, ...], UniformHypergraph]] = []
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


def is_connected(H: UniformHypergraph) -> bool:
    return len(components(H)) == 1


def first_partition_violation(H: UniformHypergraph, P: Partition) -> Edge | None:
    """First edge (in canonical order) not meeting every class exactly once.

    Returns None when P is a valid r-partition of H. Requires P to assign all
    n vertices to exactly r classes.
    """
    if P.n != H.n:
        raise HypergraphError(
            f"partition covers {P.n} vertices, hypergraph has {H.n}"
        )
    if P.num_classes != H.r:
        raise HypergraphError(
            f"partition has {P.num_classes} classes, expected r={H.r}"
        )
    labels = np.sort(np.asarray(P.class_of, dtype=np.int64)[H.edge_array], axis=1)
    bad = np.flatnonzero((labels != np.arange(1, H.r + 1)).any(axis=1))
    return H.edges[bad[0]] if bad.size else None


def validate_partition(H: UniformHypergraph, P: Partition) -> bool:
    """True iff every edge contains exactly one vertex from each class."""
    return first_partition_violation(H, P) is None


def union_edges(
    H1: UniformHypergraph, H2: UniformHypergraph
) -> UniformHypergraph:
    """Union of the edge sets over a shared vertex universe (n = max of the two).

    Vertex ids must already refer to the same universe; relabeled operands
    have to be aligned by the caller first.
    """
    if H1.r != H2.r:
        raise HypergraphError(f"rank mismatch: {H1.r} vs {H2.r}")
    return UniformHypergraph(
        H1.r, max(H1.n, H2.n), tuple(sorted(H1.edge_set | H2.edge_set))
    )


def symmetric_difference_size(
    H1: UniformHypergraph, H2: UniformHypergraph
) -> int:
    """Number of edges present in exactly one of the two hypergraphs."""
    if H1.r != H2.r:
        raise HypergraphError(f"rank mismatch: {H1.r} vs {H2.r}")
    return len(H1.edge_set ^ H2.edge_set)


def relabel(H: UniformHypergraph, new_ids: Sequence[int]) -> UniformHypergraph:
    """Rename vertices: vertex i becomes new_ids[i - 1] (a permutation of 1..n)."""
    if sorted(new_ids) != list(range(1, H.n + 1)):
        raise HypergraphError("new_ids must be a permutation of 1..n")
    mapped = sorted(
        tuple(sorted(new_ids[v - 1] for v in edge)) for edge in H.edges
    )
    return UniformHypergraph(H.r, H.n, tuple(mapped))
