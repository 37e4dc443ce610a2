"""Canonical r-uniform hypergraphs and set-level edge operations.

Vertices are 1-based contiguous integers ``1..n``. Every edge is a strictly
increasing row of r vertex ids and the edge list is kept sorted
lexicographically, so two hypergraphs compare equal exactly when they have the
same rank, vertex count, and edge set. Isolated vertices are legal.

All types here are immutable after construction; operations are pure
functions and safe to use from multiple threads.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

Edge = tuple[int, ...]

_INT64 = np.iinfo(np.int64)
# Rows per chunk when edge tuples are made from an edge array.
_CHUNK = 1 << 16

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


class UniformHypergraph:
    """An immutable r-uniform hypergraph with canonically sorted edges.

    Construct through :func:`build`, which validates and canonicalizes the
    input. Direct construction is reserved for internal callers that already
    hold a canonical edge array, which the hypergraph takes over and marks
    read-only (for example component decomposition, which may produce
    edgeless pieces with fewer than r vertices).

    The edges are stored once, as ``edge_array``: a read-only (m, r) int64
    array of 0-based ids whose rows are strictly increasing and sorted
    lexicographically. ``edges`` (1-based vertex tuples) and ``edge_set``
    are views made from it on first use. Equality and hashing are those of
    (r, n, edge_array).
    """

    def __init__(self, r: int, n: int, edge_array: np.ndarray) -> None:
        edge_array.flags.writeable = False
        self.__dict__.update(r=r, n=n, edge_array=edge_array)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def m(self) -> int:
        return self.edge_array.shape[0]

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Edges as 1-based vertex tuples in canonical order."""
        return _edge_tuples(self.edge_array)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def degree_array(self) -> np.ndarray:
        """Per-vertex edge counts as a read-only int64 array of length n."""
        deg = np.bincount(self.edge_array.ravel(), minlength=self.n).astype(np.int64)
        deg.flags.writeable = False
        return deg

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniformHypergraph):
            return NotImplemented
        return (
            self.r == other.r
            and self.n == other.n
            and np.array_equal(self.edge_array, other.edge_array)
        )

    def __hash__(self) -> int:
        return hash((self.r, self.n, self.edge_array.tobytes()))

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

    Each swap is a pair of vertex-id tuples. It must remove an edge present
    before the swap and insert a canonical edge (r strictly increasing ids
    in 1..n) absent before it; :meth:`apply` replays the trace and enforces
    this.
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
            for edge in (removed, inserted):
                if not isinstance(edge, tuple):
                    raise HypergraphError(f"trace edge {edge!r} is not a tuple")
            if removed not in edge_set:
                raise HypergraphError(f"trace removes missing edge {list(removed)}")
            if inserted in edge_set:
                raise HypergraphError(f"trace inserts existing edge {list(inserted)}")
            if (
                len(inserted) != H.r
                or list(inserted) != sorted(set(inserted))
                or not 1 <= inserted[0] <= inserted[-1] <= H.n
            ):
                raise HypergraphError(
                    f"trace inserts non-canonical edge {list(inserted)}: expected "
                    f"{H.r} strictly increasing vertex ids in [1, {H.n}]"
                )
            edge_set.remove(removed)
            edge_set.add(inserted)
        return build(H.r, H.n, sorted(edge_set))


def _edge_error(pos: int, edge: Edge, r: int, n: int) -> str | None:
    """The message of the first per-edge check that input edge #pos fails,
    in the order cardinality, repeated vertex, range; None if it passes."""
    if len(edge) != r:
        return f"edge #{pos} {list(edge)} has {len(edge)} vertices, expected {r}"
    if len(set(edge)) != r:
        return f"edge #{pos} {list(edge)} has a repeated vertex"
    for v in edge:
        if not 1 <= v <= n:
            return f"edge #{pos} {list(edge)}: vertex id {v} out of range [1, {n}]"
    return None


def _input_rows(
    edge_list: Iterable[Sequence[int]], r: int
) -> tuple[np.ndarray, Edge | Exception | None]:
    """The input edges as a (k, r) int64 array, plus what stopped the
    conversion: None when every edge fits, else the first edge of another
    size or holding an id beyond int64, or the exception raised converting
    it. The array then holds the edges before that one."""
    if isinstance(edge_list, np.ndarray) and edge_list.dtype.kind != "i":
        edge_list = edge_list.tolist()  # convert entries as int() would
    elif not isinstance(edge_list, (np.ndarray, list, tuple)):
        edge_list = list(edge_list)
    if len(edge_list) == 0:
        return np.empty((0, r), dtype=np.int64), None
    try:
        rows = np.asarray(edge_list, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is not None and rows.ndim == 2 and rows.shape[1] == r:
        return rows, None
    # Ragged, of another width, or not int64: convert edge by edge, in order.
    fitting: list[Edge] = []
    for raw in edge_list:
        try:
            edge = tuple(int(v) for v in raw)
        except (TypeError, ValueError) as exc:
            return np.array(fitting, dtype=np.int64).reshape(-1, r), exc
        if len(edge) != r or not all(_INT64.min <= v <= _INT64.max for v in edge):
            return np.array(fitting, dtype=np.int64).reshape(-1, r), edge
        fitting.append(edge)
    return np.array(fitting, dtype=np.int64).reshape(-1, r), None


def _edge_tuples(edge_array: np.ndarray) -> tuple[Edge, ...]:
    """1-based edge tuples of a 0-based edge array, converted in chunks."""
    out: list[Edge] = []
    for start in range(0, edge_array.shape[0], _CHUNK):
        out.extend(map(tuple, (edge_array[start : start + _CHUNK] + 1).tolist()))
    return tuple(out)


def _row_order(rows: np.ndarray, n: int) -> np.ndarray:
    """Stable lexicographic order of the rows of a (k, r) array of ids in
    1..n: one sort of a mixed-radix key when n**r fits int64, which takes
    about a third of the time of ``np.lexsort`` (31 ms against 90 ms for
    n=2e4, m=2e5, r=3 on a 2-vCPU VM); ``np.lexsort`` only when it does not."""
    r = rows.shape[1]
    if n**r > _INT64.max:
        return np.lexsort(rows.T[::-1])
    key = rows[:, 0] - 1
    for j in range(1, r):
        key = key * n + (rows[:, j] - 1)
    return np.argsort(key, kind="stable")


def build(
    r: int,
    n: int,
    edge_list: Iterable[Sequence[int]],
    dedupe: bool = False,
) -> UniformHypergraph:
    """Validate and canonicalize an edge list into a UniformHypergraph.

    Rejects edges of the wrong cardinality, repeated vertices within an edge,
    out-of-range vertex ids, and duplicate edges. With ``dedupe=True``
    repeated edges are silently collapsed instead of rejected. The error
    names the first input edge that fails a check (a duplicate fails at its
    second occurrence); for that edge the checks run in the order listed.
    """
    if r < 2:
        raise HypergraphError(f"rank must be at least 2, got r={r}")
    if n < r:
        raise HypergraphError(f"need at least r={r} vertices, got n={n}")
    rows, stop = _input_rows(edge_list, r)
    k = rows.shape[0]
    rows_sorted = np.sort(rows, axis=1)
    failing = (np.diff(rows_sorted, axis=1) == 0).any(axis=1)
    failing |= (rows_sorted[:, 0] < 1) | (rows_sorted[:, -1] > n)
    first = int(np.argmax(failing)) if failing.any() else k
    # Every edge before the first failing one is valid, so a duplicate
    # among them is the earliest error.
    order = _row_order(rows_sorted[:first], n)
    canonical = rows_sorted[order]
    # the order is stable, so within a run of equal rows the input order
    # holds and every row but the run's first is a later occurrence
    repeat = (canonical[1:] == canonical[:-1]).all(axis=1)
    if not dedupe and repeat.any():
        second = int(order[1:][repeat].min())
        key = rows_sorted[second].tolist()
        raise HypergraphError(f"duplicate edge {key} (edge #{second + 1})")
    if first < k:
        raise HypergraphError(_edge_error(first + 1, tuple(rows[first].tolist()), r, n))
    if isinstance(stop, Exception):
        raise stop
    if stop is not None:
        # an id beyond int64 is out of range for any n the degrees fit in
        raise HypergraphError(_edge_error(k + 1, stop, r, n))
    if repeat.any():
        canonical = canonical[np.concatenate(([True], ~repeat))]
    return UniformHypergraph(r, n, canonical - 1)


def degrees(H: UniformHypergraph) -> np.ndarray:
    """Number of edges containing each vertex; entries sum to r*m."""
    return H.degree_array.copy()


def is_regular(H: UniformHypergraph) -> bool:
    deg = H.degree_array
    return bool(deg.max() == deg.min())


def _component_labels(H: UniformHypergraph) -> np.ndarray:
    """Per vertex, the 0-based smallest vertex of its connected component.

    Every round hooks the label of each edge's vertices, and the labels
    those point at, to the smallest label on the edge, then jumps pointers
    until each label is a root. Labels only fall and never leave their
    component, so at the fixed point each component is labelled by its
    smallest vertex. Each tree is merged within two rounds, so the number
    of rounds is logarithmic in n.
    """
    label = np.arange(H.n)
    edges = H.edge_array
    if edges.shape[0] == 0:
        return label
    while True:
        ends = label[edges]
        low = ends.min(axis=1)
        if np.array_equal(ends.max(axis=1), low):
            return label
        low = np.repeat(low, H.r)
        np.minimum.at(label, ends.ravel(), low)
        np.minimum.at(label, edges.ravel(), low)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def components(
    H: UniformHypergraph,
) -> list[tuple[tuple[int, ...], UniformHypergraph]]:
    """Decompose into connected components.

    Two vertices are connected when a chain of pairwise-intersecting edges
    links them. Returns (vertex subset, relabeled subhypergraph) pairs ordered
    by smallest original vertex; the subsets partition 1..n and the edge sets
    partition E(H). Isolated vertices become edgeless singleton components.
    A connected H is returned as its own single component.
    """
    label = _component_labels(H)
    roots = np.flatnonzero(label == np.arange(H.n))
    if roots.size == 1:
        return [(tuple(range(1, H.n + 1)), H)]
    comp = np.searchsorted(roots, label)
    vertex_order = np.argsort(comp, kind="stable")
    vertex_count = np.bincount(comp, minlength=roots.size)
    vertex_start = np.cumsum(vertex_count) - vertex_count
    # Rank within the component: monotone, so relabeled edges keep their
    # sorted vertices and their canonical order.
    rank = np.empty(H.n, dtype=np.int64)
    rank[vertex_order] = np.arange(H.n) - np.repeat(vertex_start, vertex_count)
    edges = H.edge_array
    edge_comp = comp[edges[:, 0]]
    edge_order = np.argsort(edge_comp, kind="stable")
    edge_count = np.bincount(edge_comp, minlength=roots.size).tolist()
    sub_edges = rank[edges[edge_order]]
    members = (vertex_order + 1).tolist()
    out: list[tuple[tuple[int, ...], UniformHypergraph]] = []
    v0 = e0 = 0
    for size, count in zip(vertex_count.tolist(), edge_count):
        sub = UniformHypergraph(H.r, size, sub_edges[e0 : e0 + count])
        out.append((tuple(members[v0 : v0 + size]), sub))
        v0 += size
        e0 += count
    return out


def is_connected(H: UniformHypergraph) -> bool:
    return bool((_component_labels(H) == 0).all())


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
    return tuple((H.edge_array[bad[0]] + 1).tolist()) if bad.size else None


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
    both = np.concatenate((H1.edge_array, H2.edge_array)) + 1
    return build(H1.r, max(H1.n, H2.n), both, dedupe=True)


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
    return build(H.r, H.n, np.asarray(new_ids, dtype=np.int64)[H.edge_array])
