"""Hypergraph families, blow-ups, direct products, and seeded random generators.

Each construction computes its edges as one array and hands it to ``build``,
which canonicalizes the order; a random generator draws the codes of all its
edges in one ``Generator.choice`` call and decodes them as arrays.
Every generator is a deterministic function of its parameters and seed, so
fuzz runs are replayable. ``seed`` arguments accept anything
``numpy.random.default_rng`` does, including an existing Generator.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .core import (
    _INT64,
    HypergraphError,
    Partition,
    UniformHypergraph,
    _as_id,
    _check_sizes,
    build,
)

__all__ = [
    "blow_up",
    "complete_r_partite",
    "direct_product",
    "random_r_partite",
    "random_uniform",
    "single_edge",
]


def single_edge(r: int) -> UniformHypergraph:
    """The r-uniform hypergraph on r vertices with the single edge 1..r."""
    return build(r, r, [tuple(range(1, r + 1))])


def _ints(values: Sequence, what: str) -> tuple[int, ...]:
    """values as Python ints; a value not of an integer type (2.5, and also
    2.0 or a string) is refused, not truncated."""
    out = tuple(map(_as_id, values))
    if None in out:
        raise HypergraphError(f"{what} {values[out.index(None)]!r} is not an integer")
    return out


def _class_layout(sizes: Sequence[int]) -> tuple[tuple[int, ...], Partition]:
    """Consecutive vertex classes of the given sizes: class i occupies the ids
    following class i-1. Returns the sizes as ints and the partition."""
    sizes = _ints(tuple(sizes), "class size")
    if len(sizes) < 2:
        raise HypergraphError(f"need at least 2 classes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise HypergraphError(f"every class must be nonempty, got sizes {list(sizes)}")
    class_of = tuple(c for c, s in enumerate(sizes, 1) for _ in range(s))
    return sizes, Partition(class_of, len(sizes))


def _digits(codes: np.ndarray, bases: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """The (len(codes), r) array whose column j is firsts[..., j] plus digit j
    of codes in the mixed radix bases[..., j], column 0 least significant."""
    out = np.empty((codes.shape[0], bases.shape[-1]), dtype=np.int64)
    for j in range(bases.shape[-1]):
        out[:, j] = firsts[..., j] + codes % bases[..., j]
        codes = codes // bases[..., j]
    return out


def complete_r_partite(sizes: Sequence[int]) -> tuple[UniformHypergraph, Partition]:
    """All transversal edges over consecutive vertex classes of the given sizes.

    Class i occupies the ids following class i-1, so vertex 1..n_1 is class 1
    and so on. Returns the hypergraph and its defining partition.
    """
    sizes, P = _class_layout(sizes)
    return blow_up(single_edge(len(sizes)), sizes), P


def blow_up(H: UniformHypergraph, k: int | Sequence[int]) -> UniformHypergraph:
    """Replace vertex i by a set of k_i copies and each edge by all its transversals.

    ``k`` may be a single positive integer (uniform blow-up) or one positive
    integer per vertex. With uniform k the result has k*n vertices and
    k**r * m edges.
    """
    if not np.iterable(k) or isinstance(k, (str, bytes)):
        k = (k,) * H.n
    kvec = _ints(tuple(k), "multiplicity")
    if len(kvec) != H.n:
        raise HypergraphError(
            f"need one multiplicity per vertex: got {len(kvec)} for n={H.n}"
        )
    if any(x < 1 for x in kvec):
        raise HypergraphError(f"multiplicities must be positive, got {list(kvec)}")
    mult = np.array(kvec, dtype=np.int64)
    # edge e becomes prod(mult[e]) rows; row t of that block takes, from the
    # copies of e's j-th vertex, the one given by digit j of t
    sizes = mult[H.edge_array]
    count = sizes.prod(axis=1)
    owner = np.repeat(np.arange(H.m), count)
    within = np.arange(owner.shape[0]) - np.repeat(np.cumsum(count) - count, count)
    firsts = (np.cumsum(mult) - mult + 1)[H.edge_array]
    return build(H.r, int(mult.sum()), _digits(within, sizes[owner], firsts[owner]))


def direct_product(H1: UniformHypergraph, H2: UniformHypergraph) -> UniformHypergraph:
    """Direct product on vertex pairs, flattened row-major: (i, j) -> (i-1)*n2 + j.

    An r-set of pairs is an edge exactly when both coordinate projections are
    edges; each pair of edges contributes one edge per alignment of the two,
    r! in total, so m = r! * m1 * m2.
    """
    if H1.r != H2.r:
        raise HypergraphError(f"rank mismatch: {H1.r} vs {H2.r}")
    r = H1.r
    perms = np.array(list(itertools.permutations(range(r))))
    # (m1, m2, r!, r): edge e1 paired with every alignment of every edge e2;
    # distinct triples give distinct edges, since each pair of projections
    # and the alignment can be read back from the edge
    pairs = H1.edge_array[:, None, None, :] * H2.n + H2.edge_array[:, perms][None] + 1
    return build(r, H1.n * H2.n, pairs.reshape(-1, r))


def _colex_subsets(codes: np.ndarray, n: int, r: int) -> np.ndarray:
    """Row k: the r-subset c_1 < ... < c_r of 0..n-1 whose colex rank
    C(c_1, 1) + ... + C(c_r, r) is codes[k] (Knuth, TAOCP 4A, 7.2.1.3).
    From i = r down, c_i is the largest a with C(a, i) <= the rank left."""
    # tables[i - 1][a] = C(a, i) for a < n: C(a, 1) = a, and each next table
    # holds the shifted cumulative sums of the last. The first sum past int64
    # wraps negative; from there on entries are int64's maximum, above every
    # rank, so searchsorted never passes them.
    tables = [np.arange(n, dtype=np.int64)]
    for _ in range(1, r):
        sums = np.cumsum(tables[-1])
        sums[np.logical_or.accumulate(sums < 0)] = _INT64.max
        tables.append(np.concatenate(([0], sums[:-1])))
    out = np.empty((codes.shape[0], r), dtype=np.int64)
    for i in range(r, 0, -1):
        table = tables[i - 1]
        out[:, i - 1] = np.searchsorted(table, codes, side="right") - 1
        codes = codes - table[out[:, i - 1]]
    return out


def random_uniform(n: int, m: int, r: int, seed) -> UniformHypergraph:
    """m distinct edges drawn uniformly without replacement from all r-subsets,
    as colex ranks. C(n, r) beyond int64, which ``choice`` cannot take, is
    refused."""
    n, m, r = _ints((n, m, r), "parameter")
    _check_sizes(r, n)
    total = math.comb(n, r)
    if not 0 <= m <= total:
        raise HypergraphError(f"m={m} outside [0, C({n},{r})={total}]")
    if total > _INT64.max:
        raise HypergraphError(f"C({n},{r})={total} subsets exceed the int64 range of edge codes")
    codes = np.random.default_rng(seed).choice(total, size=m, replace=False, shuffle=False)
    return build(r, n, _colex_subsets(codes, n, r) + 1)


def random_r_partite(sizes: Sequence[int], m: int, seed) -> tuple[UniformHypergraph, Partition]:
    """m distinct transversal edges drawn uniformly over the given class sizes,
    as codes whose mixed-radix digits pick the vertex in each class."""
    sizes, P = _class_layout(sizes)
    (m,) = _ints((m,), "parameter")
    total = math.prod(sizes)
    if not 0 <= m <= total:
        raise HypergraphError(f"m={m} outside [0, {total}]")
    if total > _INT64.max:
        raise HypergraphError(f"{total} transversals exceed the int64 range of edge codes")
    codes = np.random.default_rng(seed).choice(total, size=m, replace=False, shuffle=False)
    bases = np.array(sizes, dtype=np.int64)
    firsts = np.cumsum(bases) - bases + 1
    return build(len(sizes), sum(sizes), _digits(codes, bases, firsts)), P
