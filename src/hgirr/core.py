"""Canonical r-uniform hypergraphs and set-level edge operations.

Vertices are 1-based contiguous integers ``1..n``. Every edge is a strictly
increasing row of r vertex ids and the edge list is kept sorted
lexicographically, so two hypergraphs compare equal exactly when they have the
same rank, vertex count, and edge set. Isolated vertices are legal.

All types here are immutable after construction; operations are pure
functions and safe to use from multiple threads.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

Edge = tuple[int, ...]

_INT64 = np.iinfo(np.int64)
# Rows per chunk when edge tuples are made from an edge array.
_CHUNK = 1 << 16

__all__ = [
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
    lexicographically. ``edges`` (1-based vertex tuples) is a view made from
    it on first use. Equality and hashing are those of (r, n, edge_array).
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

    ``class_of[i - 1]`` is the class of vertex i, an integer (a float such
    as 1.7 is rejected, not truncated). Classes may be empty; for an
    r-partite hypergraph ``num_classes`` equals the rank.
    """

    class_of: tuple[int, ...]
    num_classes: int

    def __post_init__(self) -> None:
        given = tuple(self.class_of)
        class_of = tuple(map(_as_id, given))
        if self.num_classes < 1:
            raise HypergraphError(f"need at least one class, got {self.num_classes}")
        for i, c in enumerate(class_of, 1):
            if c is None:
                raise HypergraphError(
                    f"vertex {i} assigned to class {given[i - 1]!r}, not an integer"
                )
            if not 1 <= c <= self.num_classes:
                raise HypergraphError(
                    f"vertex {i} assigned to class {c}, outside [1, {self.num_classes}]"
                )
        object.__setattr__(self, "class_of", class_of)

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
    def _class_array(self) -> np.ndarray:
        """class_of as a read-only int64 array, made on first use."""
        classes = np.array(self.class_of, dtype=np.int64)
        classes.flags.writeable = False
        return classes

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

    Each swap is a pair of integer vertex-id tuples. It must remove an edge
    present before the swap and insert a canonical edge (r strictly increasing
    ids in 1..n) absent before it; :meth:`apply` replays the trace and
    enforces this.
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
            # checked before the lookup: (1.0, 4, 5) hashes and compares
            # equal to the edge (1, 4, 5)
            if None in map(_as_id, removed):
                raise HypergraphError(
                    f"trace removes edge {list(removed)}: vertex ids must be integers"
                )
            if removed not in edge_set:
                raise HypergraphError(f"trace removes missing edge {list(removed)}")
            if inserted in edge_set:
                raise HypergraphError(f"trace inserts existing edge {list(inserted)}")
            if (
                len(inserted) != H.r
                or None in map(_as_id, inserted)
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


def _as_id(v) -> int | None:
    """v as a Python int, or None when v is not of an integer type (a float
    such as 1.5 or 2.0, a string)."""
    try:
        return operator.index(v)
    except TypeError:
        return None


def _scan(edge_list: Iterable[Sequence[int]], r: int, n: int) -> np.ndarray:
    """The input edges as a (k, r) int64 array of sorted 1-based rows, read
    one edge at a time in input order: the reference reader of :func:`build`
    and the only code that raises its edge errors. The first edge that fails
    a check raises; its checks run in the order integer ids, cardinality,
    repeated vertex, range, duplicate of an earlier edge. The "not an
    integer" message shows the edge as given (1.5, 2.0), every other message
    its ids as Python ints. An edge that is not iterable raises its
    ``TypeError``."""
    if isinstance(edge_list, np.ndarray):
        edge_list = edge_list.tolist()
    seen: dict[Edge, None] = {}
    for pos, raw in enumerate(edge_list, 1):
        edge = tuple(raw.tolist() if isinstance(raw, np.ndarray) else raw)
        ids = list(map(_as_id, edge))
        if None in ids:
            error = f"{list(edge)}: vertex id {edge[ids.index(None)]!r} is not an integer"
        elif len(ids) != r:
            error = f"{ids} has {len(ids)} vertices, expected {r}"
        elif len(set(ids)) != r:
            error = f"{ids} has a repeated vertex"
        elif outside := [v for v in ids if not 1 <= v <= n]:
            error = f"{ids}: vertex id {outside[0]} out of range [1, {n}]"
        elif (key := tuple(sorted(ids))) in seen:
            raise HypergraphError(f"duplicate edge {list(key)} (edge #{pos})")
        else:
            seen[key] = None
            continue
        raise HypergraphError(f"edge #{pos} {error}")
    return np.array(list(seen), dtype=np.int64).reshape(-1, r)


def _edge_tuples(edge_array: np.ndarray) -> tuple[Edge, ...]:
    """1-based edge tuples of a 0-based edge array, converted in chunks.
    Each chunk's tuples are zipped from its columns' lists, about 1.5 times
    as fast as a tuple per row list (m = 6,000 and 200,000, 2-vCPU VM)."""
    out: list[Edge] = []
    for start in range(0, edge_array.shape[0], _CHUNK):
        out.extend(zip(*(edge_array[start : start + _CHUNK] + 1).T.tolist()))
    return tuple(out)


def _fold_columns(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1)`` of a 2-D array, as a.shape[1] - 1 calls of
    the binary ufunc over its column views, left to right, into one output.
    Reducing a C-ordered (m, r) array along its rows runs an inner loop of r
    elements once per row: ``min(axis=1)`` takes 8.4 ms on a (200000, 3)
    int64 array, two ``np.minimum`` calls over its columns 0.7 ms (2-vCPU
    VM)."""
    if a.shape[1] == 1:
        return a[:, 0].copy()
    out = ufunc(a[:, 0], a[:, 1])
    for j in range(2, a.shape[1]):
        ufunc(out, a[:, j], out=out)
    return out


def _increasing_in_range(rows: np.ndarray, n: int) -> bool:
    """Whether every row of a (k, r) array of 1-based ids is strictly
    increasing with ids in 1..n, checked column by column."""
    ok = rows[:, 0] >= 1
    ok &= rows[:, -1] <= n
    for j in range(rows.shape[1] - 1):
        ok &= rows[:, j] < rows[:, j + 1]
    return bool(ok.all())


def _sort_rows(rows: np.ndarray, n: int, distinct: bool) -> np.ndarray | None:
    """The rows of a (k, r) array of 0-based ids in 0..n-1, each strictly
    increasing, in lexicographic order as a new C-ordered array. With
    ``distinct`` each row is kept once; without it, None when two rows are
    equal. When n**r fits int64 each row is one mixed-radix code, and the
    sorted codes are decoded back into rows by r - 1 ``np.divmod`` calls;
    otherwise ``np.lexsort`` orders the rows."""
    r = rows.shape[1]
    wide = n**r > _INT64.max
    if wide:
        keys = np.take(rows, np.lexsort(rows.T[::-1]), axis=0)
        repeat = _fold_columns(np.logical_and, keys[1:] == keys[:-1])
    else:
        keys = rows[:, 0] * n
        for j in range(1, r - 1):
            keys += rows[:, j]
            keys *= n
        keys += rows[:, r - 1]
        keys.sort()
        repeat = keys[1:] == keys[:-1]
    if repeat.any():
        if not distinct:
            return None
        keys = np.compress(np.concatenate(([True], ~repeat)), keys, axis=0)
    if wide:
        return keys
    out = np.empty((keys.shape[0], r), dtype=np.int64)
    for j in range(r - 1, 0, -1):
        np.divmod(keys, n, out=(keys, out[:, j]))
    out[:, 0] = keys
    return out


def _check_sizes(r: int, n: int, error: type[HypergraphError] = HypergraphError) -> None:
    if r < 2:
        raise error(f"rank must be at least 2, got r={r}")
    if n < r:
        raise error(f"need at least r={r} vertices, got n={n}")
    # vertex ids are int64 array entries
    if n > _INT64.max:
        raise error(f"need at most {_INT64.max} vertices, got n={n}")


def build(r: int, n: int, edge_list: Iterable[Sequence[int]]) -> UniformHypergraph:
    """Validate and canonicalize an edge list into a UniformHypergraph.

    Rejects vertex ids that are not of an integer type (1.5, and also 2.0),
    edges of the wrong cardinality, repeated vertices within an edge,
    out-of-range vertex ids, and duplicate edges. The error names the first
    input edge that fails a check (a duplicate fails at its second
    occurrence); for that edge the checks run in the order listed.

    A (k, r) integer array is checked as a whole and only accepted that way;
    any other input, and an array the whole-array checks flag, is read edge
    by edge by ``_scan``, which names the error. Rows are sorted within
    themselves only when they do not already increase, and the edges are
    ordered by ``_sort_rows``.
    """
    _check_sizes(r, n)
    if not (
        isinstance(edge_list, np.ndarray)
        and edge_list.dtype.kind in "iu"
        and edge_list.ndim == 2
        and edge_list.shape[1] == r
    ):
        edge_list = _scan(edge_list, r, n)
    rows = edge_list.astype(np.int64)
    # range checked on the 1-based ids: shifting first would wrap -2**63
    ok = _increasing_in_range(rows, n)
    if not ok:
        rows.sort(axis=1)
        ok = _increasing_in_range(rows, n)
    if ok:
        rows -= 1
        canonical = _sort_rows(rows, n, distinct=False)
        if canonical is not None:
            return UniformHypergraph(r, n, canonical)
    _scan(edge_list, r, n)
    raise AssertionError("_scan accepted edges that build's array checks flag")


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
    ends = edges  # label[edges] while every label is its own vertex
    while True:
        low = _fold_columns(np.minimum, ends)
        if np.array_equal(_fold_columns(np.maximum, ends), low):
            return label
        low = np.repeat(low, H.r)
        np.minimum.at(label, ends.ravel(), low)
        np.minimum.at(label, edges.ravel(), low)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
        ends = label[edges]


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
    sub_edges = rank[np.take(edges, edge_order, axis=0)]
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
    # slot e*r + c - 1 counts edge e's vertices in class c; the r classes of
    # an edge fill its r slots exactly once each, or leave one empty
    slots = np.take(P._class_array, H.edge_array)
    slots += np.arange(-1, H.m * H.r - 1, H.r)[:, None]
    empty = np.flatnonzero(np.bincount(slots.ravel(), minlength=H.m * H.r) == 0)
    return tuple((H.edge_array[empty[0] // H.r] + 1).tolist()) if empty.size else None


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
    # both edge arrays are canonical, so their sorted distinct rows are too
    n = max(H1.n, H2.n)
    both = np.concatenate((H1.edge_array, H2.edge_array))
    return UniformHypergraph(H1.r, n, _sort_rows(both, n, distinct=True))


def symmetric_difference_size(
    H1: UniformHypergraph, H2: UniformHypergraph
) -> int:
    """Number of edges present in exactly one of the two hypergraphs."""
    return 2 * union_edges(H1, H2).m - H1.m - H2.m


def relabel(H: UniformHypergraph, new_ids: Sequence[int]) -> UniformHypergraph:
    """Rename vertices: vertex i becomes new_ids[i - 1] (a permutation of 1..n)."""
    if sorted(new_ids) != list(range(1, H.n + 1)):
        raise HypergraphError("new_ids must be a permutation of 1..n")
    return build(H.r, H.n, np.asarray(new_ids, dtype=np.int64)[H.edge_array])
