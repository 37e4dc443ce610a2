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
the earlier implementations of the kernel ``hgirr.spectral._kernel`` and
``hgirr.components``. Their replacements must match them bit for bit.

``reference_solve_component`` is the shifted power iteration alone, as the
per-component solve ran before it could switch to Newton-Noda steps. It
follows the solver's rank rule: it shifts a graph by
``hgirr.spectral._SHIFT_GRAPH`` times the maximum degree, and a component of
rank 3 or more by ``_SHIFT_HYPER`` times it, for the whole solve, and pads by
the maximum degree. Wherever the solver never takes a Newton step, it must
match bit for bit. ``fix_shift`` sets both fractions to one value, which gives
one fixed shift at every rank, as the solver had before the rule.

``residual`` is the eigenpair residual that ``SpectralResult`` once
carried: an uncertified check of a solve on tiny inputs.

``reference_spectral_radius`` is ``hgirr.spectral_radius`` solved one
component at a time: one ``_solve_group`` call per component with edges, in
component order, so that no step is batched; an edgeless component gives
rho = 0 and a vector of ones without iterating. Solving components together
must match every field of its result bit for bit.

``loose_path`` and ``star_with_tail`` build the slowly converging instances
the Newton-Noda phase exists for; ``path_with_pendants`` builds one that
neither phase converges on within a small budget. ``sunflower`` builds
petals of one rank through one common vertex, whose slow mode is positive.

``reference_blow_up``, ``reference_direct_product``,
``reference_complete_r_partite`` and ``reference_symmetric_difference_size``
are the earlier tuple-set implementations of the constructions and of the
edge-set difference. The edge-array versions must return the same
hypergraphs and partitions.

``reference_random_uniform`` and ``reference_random_r_partite`` are the
generators that drew one edge at a time, rejecting repeats and drawing the
complement of a dense instance. Pinned outputs recorded with them are
rebuilt with them, so those pins keep their digests. ``tuple_random_uniform``
and ``tuple_random_r_partite`` draw the same codes as ``hgirr``'s generators,
with one ``Generator.choice`` call, and decode them as tuples: by indexing
the list of all r-subsets in colex order, and digit by digit.

``compensated_sum`` adds floats the way Python 3.12's builtin ``sum`` does
(Neumaier's compensated summation), so that a test on an older Python can
check that no pinned figure depends on which ``sum`` it gets.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque

import numpy as np

import hgirr.spectral
from hgirr import EdgeTrace, HypergraphError, Partition, UniformHypergraph, build
from hgirr.core import components
from hgirr.spectral import SpectralOptions, SpectralResult


def compensated_sum(values, start=0):
    """sum(values, start) with Neumaier's compensation, as in Python 3.12."""
    total, compensation = float(start), 0.0
    for value in values:
        value = float(value)
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


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
    edge_array = np.array(sorted(edge_set), dtype=np.int64) - 1
    return UniformHypergraph(H.r, H.n, edge_array), EdgeTrace(tuple(swaps))


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


def reference_solve_component(edges, n, r, opts):
    """Shifted power iteration on one connected component: (rho, perron
    vector, iterations, bracket, converged), the bracket shifted back and
    measured on the returned vector."""
    if edges.shape[0] == 0:
        return 0.0, np.ones(n, dtype=np.float64), 0, (0.0, 0.0), True

    edges = edges.copy()
    deg = np.bincount(edges.ravel(), minlength=n)
    degree = float(deg.max())
    fraction = hgirr.spectral._SHIFT_GRAPH if r == 2 else hgirr.spectral._SHIFT_HYPER
    sigma = degree * fraction

    x = np.full(n, n ** (-1.0 / r))
    root = 1.0 / (r - 1)
    lo = hi = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        xp = x ** (r - 1)
        y = reference_apply_adjacency_edges(edges, x) + sigma * xp
        ratios = y / xp
        lo = float(ratios.min())
        hi = float(ratios.max())
        if hi - lo <= opts.tolerance * max(1.0, hi):
            converged = True
            break
        if iterations < opts.max_iterations:
            x = y**root
            x /= float(np.sum(x**r) ** (1.0 / r))
    # Higham's gamma_k with u = eps / 2 and k = max degree + 2r + 4
    u = float(np.finfo(np.float64).eps) / 2
    k = int(degree) + 2 * r + 4
    noise = k * u / (1.0 - k * u) * max(1.0, hi)
    bracket = (lo - sigma - noise, hi - sigma + noise)
    return 0.5 * (lo + hi) - sigma, x, iterations, bracket, converged


def residual(H, rho, x) -> float:
    """max_i |(A x)_i - rho * x_i^(r-1)|, relative to max(1, rho): how far
    (rho, x) is from an eigenpair, certified by nothing."""
    x = np.asarray(x, dtype=np.float64)
    ax = reference_apply_adjacency_edges(H.edge_array, x)
    gap = np.max(np.abs(ax - rho * x ** (H.r - 1)))
    return float(gap / max(1.0, rho))


def fix_shift(monkeypatch, fraction):
    """Shift every component by ``fraction`` of its maximum degree throughout."""
    monkeypatch.setattr(hgirr.spectral, "_SHIFT_HYPER", fraction)
    monkeypatch.setattr(hgirr.spectral, "_SHIFT_GRAPH", fraction)


def reference_spectral_radius(H, opts=None):
    """Spectral radius solved one component at a time."""
    if opts is None:
        opts = SpectralOptions()

    perron = np.zeros(H.n, dtype=np.float64)
    comp_rhos: list[float] = []
    brackets: list[tuple[float, float]] = []
    total_iters = 0
    all_converged = True

    for verts, sub in components(H):
        if sub.m:
            solution = hgirr.spectral._solve_group([sub], opts)[0]
        else:
            solution = (0.0, np.ones(sub.n), 0, (0.0, 0.0), True)
        rho_c, x_c, iters, bracket, ok = solution
        comp_rhos.append(rho_c)
        brackets.append(bracket)
        total_iters += iters
        all_converged = all_converged and ok
        perron[np.asarray(verts, dtype=np.int64) - 1] = x_c

    rho = max(comp_rhos)
    bracket = (max(b[0] for b in brackets), max(b[1] for b in brackets))
    return SpectralResult(
        rho=rho,
        perron_vector=perron,
        iterations=total_iters,
        converged=all_converged,
        component_rhos=tuple(comp_rhos),
        bracket=bracket,
        options=opts,
    )


def loose_path(r: int, k: int) -> UniformHypergraph:
    """The r-uniform loose path with k edges: consecutive edges share one
    vertex, n = (r-1)k + 1. It is the r-th power of the path graph on k+1
    vertices, so its radius is (2 cos(pi/(k+2)))^(2/r)."""
    step = r - 1
    starts = np.arange(k, dtype=np.int64)[:, None] * step
    return build(r, step * k + 1, starts + np.arange(1, r + 1))


def star_with_tail(petals: int, tail: int) -> UniformHypergraph:
    """3-uniform: ``petals`` edges through vertex 1, then a loose path of
    ``tail`` edges hanging from the last petal's last vertex."""
    edges = [[1, 2 * i + 2, 2 * i + 3] for i in range(petals)]
    v = 2 * petals + 1
    for _ in range(tail):
        edges.append([v, v + 1, v + 2])
        v += 2
    return build(3, v, edges)


def sunflower(r: int, petals: int) -> UniformHypergraph:
    """r-uniform: ``petals`` edges through vertex 1 that share no other
    vertex, n = (r-1) petals + 1."""
    n = (r - 1) * petals + 1
    edges = np.ones((petals, r), dtype=np.int64)
    edges[:, 1:] = np.arange(2, n + 1).reshape(petals, r - 1)
    return build(r, n, edges)


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
        sub_array = np.array(sub_edges, dtype=np.int64).reshape(-1, H.r) - 1
        sub = UniformHypergraph(H.r, len(verts), sub_array)
        out.append((tuple(verts), sub))
    return out


def path_with_pendants(seed: int = 1) -> UniformHypergraph:
    """The graph (r=2) made of the path 1-2-...-301 plus 100 pendant edges
    [a, new vertex] at random places a. Its Perron vector is localized at
    one cluster of pendants, and the gap to the second eigenvalue is 4.7e-4,
    so the shifted power iteration needs about a million iterations."""
    rng = np.random.default_rng(seed)
    edges = [[i, i + 1] for i in range(1, 301)]
    n = 301
    for _ in range(100):
        n += 1
        edges.append([int(rng.integers(1, 302)), n])
    return build(2, n, edges)


def _reference_class_blocks(sizes):
    blocks = []
    offset = 0
    for s in sizes:
        blocks.append(range(offset + 1, offset + s + 1))
        offset += s
    return blocks


def _reference_class_layout(sizes):
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2:
        raise HypergraphError(f"need at least 2 classes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise HypergraphError(f"every class must be nonempty, got sizes {list(sizes)}")
    class_of = tuple(c for c, s in enumerate(sizes, 1) for _ in range(s))
    return sizes, _reference_class_blocks(sizes), Partition(class_of, len(sizes))


def reference_complete_r_partite(sizes):
    sizes, blocks, P = _reference_class_layout(sizes)
    edges = [tuple(t) for t in itertools.product(*blocks)]
    return build(len(sizes), sum(sizes), edges), P


def reference_blow_up(H, k):
    if isinstance(k, (int, np.integer)):
        kvec = (int(k),) * H.n
    else:
        kvec = tuple(int(x) for x in k)
        if len(kvec) != H.n:
            raise HypergraphError(
                f"need one multiplicity per vertex: got {len(kvec)} for n={H.n}"
            )
    if any(x < 1 for x in kvec):
        raise HypergraphError(f"multiplicities must be positive, got {list(kvec)}")
    blocks = _reference_class_blocks(kvec)
    edges = []
    for edge in H.edges:
        edges.extend(tuple(t) for t in itertools.product(*(blocks[v - 1] for v in edge)))
    return build(H.r, sum(kvec), edges)


def reference_direct_product(H1, H2):
    if H1.r != H2.r:
        raise HypergraphError(f"rank mismatch: {H1.r} vs {H2.r}")
    n2 = H2.n
    edges = set()
    for e1 in H1.edges:
        for e2 in H2.edges:
            for aligned in itertools.permutations(e2):
                edges.add(
                    tuple(sorted((i - 1) * n2 + j for i, j in zip(e1, aligned)))
                )
    return build(H1.r, H1.n * n2, sorted(edges))


def _sample_distinct(rng, draw, want):
    """Rejection-sample ``want`` distinct items; callers keep want at or below
    half the universe so the expected number of draws stays linear."""
    chosen = set()
    while len(chosen) < want:
        chosen.add(draw(rng))
    return chosen


def reference_random_uniform(n, m, r, seed):
    """m distinct r-subsets, each drawn by its own choice call and rejected if
    drawn before; above half of C(n, r), the complement is drawn instead."""
    total = math.comb(n, r)
    if not 0 <= m <= total:
        raise HypergraphError(f"m={m} outside [0, C({n},{r})={total}]")
    rng = np.random.default_rng(seed)

    def draw(g: np.random.Generator):
        return tuple(sorted(g.choice(n, size=r, replace=False) + 1))

    if m <= total // 2:
        chosen = _sample_distinct(rng, draw, m)
    else:
        excluded = _sample_distinct(rng, draw, total - m)
        chosen = [
            e for e in itertools.combinations(range(1, n + 1), r) if e not in excluded
        ]
    return build(r, n, chosen)


def _reference_transversals(sizes, blocks, codes):
    """The edge of each code: its mixed-radix digit j, least significant
    first, picks the vertex of class j."""
    edges = []
    for code in sorted(codes):
        edge = []
        for s, block in zip(sizes, blocks):
            edge.append(block[code % s])
            code //= s
        edges.append(tuple(edge))
    return edges


def reference_random_r_partite(sizes, m, seed):
    """m distinct transversal codes, each drawn by its own integers call and
    rejected if drawn before; above half the total, the complement is drawn."""
    sizes, blocks, P = _reference_class_layout(sizes)
    total = math.prod(sizes)
    if not 0 <= m <= total:
        raise HypergraphError(f"m={m} outside [0, {total}]")
    rng = np.random.default_rng(seed)

    def draw(g: np.random.Generator):
        return int(g.integers(0, total))

    if m <= total // 2:
        codes = _sample_distinct(rng, draw, m)
    else:
        excluded = _sample_distinct(rng, draw, total - m)
        codes = set(range(total)) - excluded
    return build(len(sizes), sum(sizes), _reference_transversals(sizes, blocks, codes)), P


def _one_choice(total, m, seed):
    """The m distinct codes below total that hgirr's generators draw."""
    rng = np.random.default_rng(seed)
    return rng.choice(total, size=m, replace=False, shuffle=False).tolist()


def tuple_random_uniform(n, m, r, seed):
    """The codes of one choice call, each the index of its r-subset in the
    list of all r-subsets sorted by their largest element, then the next."""
    colex = sorted(itertools.combinations(range(1, n + 1), r), key=lambda e: e[::-1])
    return build(r, n, [colex[c] for c in _one_choice(math.comb(n, r), m, seed)])


def tuple_random_r_partite(sizes, m, seed):
    """The codes of one choice call, decoded one digit at a time."""
    sizes, blocks, P = _reference_class_layout(sizes)
    codes = _one_choice(math.prod(sizes), m, seed)
    return build(len(sizes), sum(sizes), _reference_transversals(sizes, blocks, codes)), P


def reference_symmetric_difference_size(H1, H2):
    if H1.r != H2.r:
        raise HypergraphError(f"rank mismatch: {H1.r} vs {H2.r}")
    return len(frozenset(H1.edges) ^ frozenset(H2.edges))
