"""Irregularity measures, the inequality suite, and near-regularization.

Measures, for an r-uniform hypergraph with n vertices, m edges, and degree
vector d:

* ``epsilon``: spectral radius minus the average degree r*m/n,
* ``s_measure``: total absolute deviation of degrees from r*m/n,
* ``v_measure``: (1/n) sum d_i^(r/(r-1)) - (r*m/n)^(r/(r-1)),
* ``s_r_measure``: for an r-partite instance, the deviation of each class's
  degrees from that class's average m/n_i, summed over classes.

``bound_suite`` evaluates every supported inequality against the
:class:`~hgirr.spectral.SpectralResult` of ``spectral_radius``, whose
Collatz-Wielandt bracket is the only certificate of rho, and reports each as
a named :class:`BoundCheck`. Checks whose hypotheses fail (no partition
supplied, isolated vertices, disconnected input where connectivity is
required) are reported as skipped rather than failed.

``regularize`` and ``regularize_partitewise`` share one rewiring routine that
moves edges from maximum- to minimum-degree vertices of a group until the
group's degrees lie within a band of width 1, recording the swaps in an
:class:`~hgirr.core.EdgeTrace`. ``regularize`` passes all vertices as one
group; ``regularize_partitewise`` passes the classes of the partition. The
edit count is bounded by ``s_measure`` (respectively ``s_r_measure``) of the
input. The routine keeps a sorted incidence list per vertex and sorted
degree buckets per group, so after an O(r m + n) setup one swap costs
O(r * max degree) instead of a re-sort of the whole edge set.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .core import (
    Edge,
    EdgeTrace,
    HypergraphError,
    Partition,
    UniformHypergraph,
    _fold_columns,
    first_partition_violation,
    is_regular,
    union_edges,
)
from .spectral import (
    SpectralOptions,
    SpectralResult,
    _certified_bracket,
    _gamma,
    apply_adjacency,
    spectral_radius,
)

_EPS = float(np.finfo(np.float64).eps)
# Edge count from which _logs takes one log per distinct edge degree product.
_DISTINCT_LOGS_FROM = 4096

__all__ = [
    "BoundCheck",
    "IrregularityReport",
    "analyze",
    "average_degree",
    "bound_suite",
    "epsilon",
    "regularize",
    "regularize_partitewise",
    "s_measure",
    "s_r_measure",
    "v_measure",
    "weyl_check",
]


@dataclass(frozen=True)
class BoundCheck:
    """One named inequality lhs <= rhs with its evaluation.

    ``holds`` tolerates a slack down to -tolerance. The tolerance is derived
    from the certified solver error alone, ``10 * (certified error + 1e-9)``
    at the scale of the compared quantities, so that floating point cannot
    produce a false violation. A check whose hypotheses fail carries
    ``skipped_reason`` and counts as neither passed nor failed.
    """

    name: str
    lhs: float
    rhs: float
    tolerance: float
    equality_expected: bool | None = None
    equality_reason: str | None = None
    skipped_reason: str | None = None

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def skipped(self) -> bool:
        return self.skipped_reason is not None

    @property
    def holds(self) -> bool:
        return True if self.skipped else self.slack >= -self.tolerance


@dataclass(frozen=True)
class IrregularityReport:
    n: int
    m: int
    r: int
    avg_degree: float
    epsilon: float
    s: float
    v: float
    s_r: float | None
    rho: float
    residual: float
    converged: bool
    bound_checks: tuple[BoundCheck, ...]


def average_degree(H: UniformHypergraph) -> float:
    return (H.r * H.m) / H.n


def _require_certificate(H: UniformHypergraph, spectral: SpectralResult) -> None:
    """The checks of ``spectral`` that ``bound_suite`` documents. For positive
    x, the ratios (A x)_i / x_i^(r-1) on H span an interval holding rho(H), so
    a bracket disjoint from the span (over x_i > 0, padded by the solver's own
    spectral._certified_bracket, unshifted) belongs to another hypergraph."""
    if not isinstance(spectral, SpectralResult):
        raise TypeError(
            "expected the SpectralResult of spectral_radius(H), "
            f"got {type(spectral).__name__}"
        )
    lower, upper = spectral.bracket
    if not -math.inf < lower <= upper < math.inf:  # False for a NaN end
        raise ValueError(
            f"bracket ({lower:g}, {upper:g}) certifies nothing: "
            "it must be finite, with lower end <= upper end"
        )
    x = np.asarray(spectral.perron_vector, dtype=np.float64)
    positive = x > 0  # apply_adjacency refuses an x of the wrong shape
    ratios = apply_adjacency(H, x)[positive] / x[positive] ** (H.r - 1)
    low, high = float(ratios.min(initial=math.inf)), float(ratios.max(initial=-math.inf))
    span = _certified_bracket(low, high, 0.0, int(H.degree_array.max()), H.r)
    if span[0] > upper or span[1] < lower:
        raise ValueError(
            f"bracket ({lower:g}, {upper:g}) misses the ratios [{low:g}, {high:g}] "
            "of its perron_vector on H: the result is not that of spectral_radius(H)"
        )


def epsilon(H: UniformHypergraph, result: SpectralResult) -> float:
    """Spectral radius minus average degree, from ``spectral_radius(H)``'s
    result, which is checked as ``bound_suite`` checks it. The true value is
    nonnegative and zero iff H is regular; the computed rho is the midpoint
    of a bracket, so on a regular input this can come out slightly negative
    (K_11^(3) gives about -1e-12)."""
    _require_certificate(H, result)
    return float(result.rho) - average_degree(H)


def s_measure(H: UniformHypergraph) -> float:
    """Sum of |d_i - r*m/n|. Computed as an integer sum over |n*d_i - r*m|
    divided once by n, so regular inputs give exactly 0."""
    rm = H.r * H.m
    total = int(np.abs(H.n * H.degree_array - rm).sum())
    return total / H.n


def v_measure(H: UniformHypergraph) -> float:
    """(1/n) sum d_i^(r/(r-1)) minus (r*m/n)^(r/(r-1)).

    Nonnegative by the power-mean inequality; exactly 0 on regular inputs
    (both terms coincide analytically, so the subtraction is skipped).
    """
    if is_regular(H):
        return 0.0
    deg = H.degree_array
    alpha = H.r / (H.r - 1)
    davg = (H.r * H.m) / H.n
    # summing in sorted order makes the value invariant under relabeling
    powered = np.sort(deg).astype(np.float64) ** alpha
    return float(np.mean(powered) - davg**alpha)


def _s_r(H: UniformHypergraph, P: Partition) -> float:
    """s_r for a partition already checked against H. Each class's sum is an
    exact integer, divided once by the class size."""
    deg = H.degree_array
    class_of = P._class_array
    total = 0.0
    for c in range(1, P.num_classes + 1):
        members = deg[class_of == c]
        if members.size:
            total += int(np.abs(members.size * members - H.m).sum()) / members.size
    return total


def _check_partition(H: UniformHypergraph, P: Partition) -> None:
    violation = first_partition_violation(H, P)
    if violation is not None:
        raise HypergraphError(
            f"invalid partition: edge {list(violation)} does not meet every class once"
        )


def s_r_measure(H: UniformHypergraph, P: Partition) -> float:
    """Per-class degree deviation: sum over classes of sum_j |d_j - m/n_i|."""
    _check_partition(H, P)
    return _s_r(H, P)


def _edge_degree_products(H: UniformHypergraph) -> np.ndarray:
    """Product of the vertex degrees on each edge, in canonical edge order,
    exactly: in int64 when the largest possible product fits, else as an
    object array of Python integers."""
    deg = H.degree_array
    if H.m and int(deg.max()) ** H.r >= 2**63:
        deg = deg.astype(object)
    return _fold_columns(np.multiply, deg[H.edge_array])


def _logs(products: np.ndarray) -> np.ndarray:
    """math.log of each exact edge degree product, in edge order. From
    _DISTINCT_LOGS_FROM edges on, the log is taken once per distinct product
    (``np.unique``) and indexed back into edge order: the same bits, with
    fewer logs where edges share products, but a sort that costs more than
    it saves on small inputs."""
    if products.size < _DISTINCT_LOGS_FROM:
        return np.fromiter(map(math.log, products.tolist()), np.float64, products.size)
    distinct, inverse = np.unique(products, return_inverse=True)
    logs = np.fromiter(map(math.log, distinct.tolist()), np.float64, distinct.size)
    return np.take(logs, inverse)


def _fold(terms) -> float:
    """The sum of float terms, added left to right with a rounding after each
    addition. Python's builtin sum does that up to 3.11 but is compensated
    from 3.12 on, so it would make the bits depend on the Python version."""
    return float(np.add.accumulate(np.asarray(terms, dtype=np.float64))[-1])


def _certified_tolerance(certified: float) -> float:
    return 10.0 * (certified + 1e-9)


def _check(
    name: str,
    lhs: float,
    rhs: float,
    tol: float,
    eq: bool = False,
    reason: str | None = None,
) -> BoundCheck:
    return BoundCheck(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        tolerance=float(tol),
        equality_expected=True if eq else None,
        equality_reason=reason if eq else None,
    )


def _skip(name: str, reason: str) -> BoundCheck:
    return BoundCheck(name=name, lhs=0.0, rhs=0.0, tolerance=0.0, skipped_reason=reason)


def bound_suite(
    H: UniformHypergraph,
    spectral: SpectralResult,
    partition: Partition | None = None,
    opts: SpectralOptions | None = None,
) -> list[BoundCheck]:
    """Evaluate every supported inequality for H at a certified spectral radius.

    ``spectral`` must be the :class:`SpectralResult` of ``spectral_radius(H)``:
    its bracket certifies rho, and a bare float, which carries no
    certificate, raises TypeError, and a bracket that is not finite or whose
    lower end exceeds its upper end, or that misses the ratios of the result's
    Perron vector on H, raises ValueError. The tolerance of each
    check is ``10 * (certified error + 1e-9)``, with the certified error
    carried to the rho**r scale for ``gm_lower`` and ``hm_lower``. A supplied
    partition is checked against H by the class-preserving rewiring that
    claim2 needs, before any bound is evaluated. Partition-dependent checks
    are emitted as skipped when no partition is supplied; ``opts``
    configures the extra solve needed by claim2.
    """
    _require_certificate(H, spectral)
    rho = float(spectral.rho)
    tol = _certified_tolerance(spectral.certified_error)
    if partition is not None:
        # claim2's rewiring is the only partition check; it goes through the
        # public entry point so that perfbench's per-layer trace counts it
        regularized, _ = regularize_partitewise(H, partition)

    deg = H.degree_array
    n, m, r = H.n, H.m, H.r
    davg = (r * m) / n
    regular = is_regular(H)
    edge_products = _edge_degree_products(H)
    constant_product = m > 0 and edge_products.min() == edge_products.max()
    # spectral_radius split H into components, isolated vertices included
    connected = len(spectral.component_rhos) == 1
    # equality cases, as keyword arguments of _check
    if_regular = {"eq": regular, "reason": "regular"}
    if_constant = {"eq": constant_product, "reason": "constant edge degree product"}
    checks: list[BoundCheck] = []

    checks.append(_check("cooper_dutle", davg, rho, tol, **if_regular))

    # Two-sided sandwich min d <= rho <= max d, encoded by its binding side.
    if rho - float(deg.min()) <= float(deg.max()) - rho:
        checks.append(_check("row_sum_sandwich", float(deg.min()), rho, tol, **if_regular))
    else:
        checks.append(_check("row_sum_sandwich", rho, float(deg.max()), tol, **if_regular))

    if partition is not None:
        complete = m >= 1 and m == math.prod(partition.class_sizes)
        rhs = m ** ((r - 1) / r)
        checks.append(
            _check("size_upper", rho, rhs, tol, eq=complete, reason="complete r-partite")
        )
    else:
        coef = r / math.factorial(r) ** (1.0 / r)
        checks.append(_check("size_upper", rho, coef * m ** ((r - 1) / r), tol))

    if m == 0:
        checks.append(_skip("edge_gm_upper", "no edges"))
    elif not connected:
        checks.append(_skip("edge_gm_upper", "disconnected"))
    else:
        rhs = int(edge_products.max()) ** (1.0 / r)
        checks.append(_check("edge_gm_upper", rho, rhs, tol, **if_constant))

    if m == 0 or int(deg.min()) == 0:
        checks.append(_skip("gm_lower", "zero degree"))
        checks.append(_skip("hm_lower", "zero degree"))
    else:
        # These compare at the rho**r scale: the certified error must be
        # amplified by the derivative r * rho**(r-1), and the exp/log
        # evaluation of the means carries rounding error proportional to
        # the magnitude itself, so pad by a machine-epsilon term as well.
        scale = max(1.0, rho) ** r
        float_noise = 64.0 * _EPS * scale * (1.0 + math.log(scale))
        cert_powered = (
            spectral.certified_error * r * max(1.0, rho) ** (r - 1) + float_noise
        )
        # Each mean is a sequential sum of m terms, so its relative error
        # grows as gamma_m: on the log scale for gm, where each term is at
        # most log(max product), and directly for hm's positive reciprocals.
        gamma_m = _gamma(m + 4)
        log_max = math.log(int(edge_products.max()))
        tol_gm = _certified_tolerance(cert_powered + gamma_m * scale * (1.0 + log_max))
        tol_hm = _certified_tolerance(cert_powered + gamma_m * scale)
        # left-to-right folds, as the bits of gm and hm depend on the
        # summation order; math.log of each exact product, which np.log
        # can miss by an ulp
        gm = math.exp(_fold(_logs(edge_products)) / m)
        checks.append(_check("gm_lower", gm, rho**r, tol_gm, **if_constant))
        hm = m / _fold(1.0 / edge_products)
        checks.append(_check("hm_lower", hm, rho**r, tol_hm, **if_constant))

    alpha = r / (r - 1)
    power_mean = float(np.mean(deg.astype(np.float64) ** alpha)) ** ((r - 1) / r)
    checks.append(_check("power_mean_lower", power_mean, rho, tol, **if_regular))

    s = s_measure(H)
    coef_upper = r / math.factorial(r) ** (1.0 / r)
    checks.append(
        _check("theorem2_upper", rho - davg, coef_upper * (s / 2.0) ** ((r - 1) / r), tol)
    )

    if m == 0:
        checks.append(_skip("theorem2_lower", "no edges"))
    else:
        v = v_measure(H)
        coef_lower = ((r - 1) / m ** (1.0 / r)) * (
            math.factorial(r) ** (1.0 / r) / r**r
        ) ** (1.0 / (r - 1))
        checks.append(_check("theorem2_lower", coef_lower * v, rho - davg, tol))

    if partition is None:
        checks.append(_skip("theorem1", "no partition"))
        checks.append(_skip("claim1", "no partition"))
        checks.append(_skip("claim2", "no partition"))
    elif any(size == 0 for size in partition.class_sizes):
        checks.append(_skip("theorem1", "empty class"))
        checks.append(_skip("claim1", "empty class"))
        checks.append(_skip("claim2", "empty class"))
    else:
        geo = math.prod(partition.class_sizes) ** (1.0 / r)
        s_r = _s_r(H, partition)
        checks.append(
            _check("theorem1", rho - m / geo, (s_r / 2.0) ** ((r - 1) / r), tol)
        )
        checks.append(_check("claim1", (n / r) ** (1.0 / r), geo, tol))
        hat = spectral_radius(regularized, opts)
        tol_hat = _certified_tolerance(hat.certified_error)
        rhs = m / geo + (n / r) ** (1.0 - 1.0 / r)
        checks.append(_check("claim2", hat.rho, rhs, tol_hat))

    return checks


def weyl_check(
    H1: UniformHypergraph,
    spectral: SpectralResult,
    H2: UniformHypergraph,
    opts: SpectralOptions | None = None,
) -> BoundCheck:
    """Subadditivity of the spectral radius over the edge-set union, given
    ``spectral_radius(H1)``'s result, checked as ``bound_suite`` checks it."""
    _require_certificate(H1, spectral)
    union = union_edges(H1, H2)
    r2 = spectral_radius(H2, opts)
    ru = spectral_radius(union, opts)
    certified = spectral.certified_error + r2.certified_error + ru.certified_error
    return _check("weyl", ru.rho, spectral.rho + r2.rho, _certified_tolerance(certified))


def _find_swap(
    incident: list[list[Edge]], edge_set: set[Edge], receiver: int, donor: int
) -> tuple[Edge, Edge] | None:
    """First edge in canonical order through the donor but not the receiver
    whose rewired version is not already present."""
    for edge in incident[donor]:
        if receiver not in edge:
            candidate = tuple(sorted([v for v in edge if v != donor] + [receiver]))
            if candidate not in edge_set:
                return edge, candidate
    return None


def _move(buckets: dict[int, list[int]], v: int, old: int, new: int) -> None:
    """Move vertex v from degree bucket old to degree bucket new."""
    bucket = buckets[old]
    del bucket[bisect_left(bucket, v)]
    if not bucket:
        del buckets[old]
    insort(buckets.setdefault(new, []), v)


def _rewire(
    H: UniformHypergraph, groups: tuple[tuple[int, ...], ...]
) -> tuple[UniformHypergraph, EdgeTrace]:
    """Rewire edges until, within each group of ascending vertex ids, all
    degrees lie within a band of width 1.

    Groups are handled in order. While a group's maximum and minimum degree
    differ by at least 2, an edge is moved from its lowest-id maximum-degree
    vertex to its lowest-id minimum-degree vertex (first admissible edge in
    canonical order). Such an edge always exists when the donor's degree
    exceeds the receiver's.

    Each vertex keeps its incident edges in a sorted list whose length is
    its degree; the donor's list is walked in canonical order, and a swap
    updates the 2r lists it touches by bisection. Each group keeps its
    vertices in sorted per-degree buckets, and the heads of the two extreme
    buckets are the donor and the receiver. Setup costs O(r m + n); a swap
    costs O(r * max degree) plus the walk over the donor's edges.
    """
    incident: list[list[Edge]] = [[] for _ in range(H.n + 1)]
    for edge in H.edges:  # canonical order, so every list starts sorted
        for v in edge:
            incident[v].append(edge)
    edge_set = set(H.edges)
    swaps: list[tuple[Edge, Edge]] = []
    for members in groups:
        if len(members) < 2:
            continue
        buckets: dict[int, list[int]] = {}
        for v in members:  # ascending, so every bucket starts sorted
            buckets.setdefault(len(incident[v]), []).append(v)
        dmin = min(buckets)
        dmax = max(buckets)
        while dmax - dmin >= 2:
            receiver = buckets[dmin][0]
            donor = buckets[dmax][0]
            found = _find_swap(incident, edge_set, receiver, donor)
            if found is None:
                raise RuntimeError(
                    f"no swappable edge from vertex {donor} to vertex {receiver}; "
                    "this indicates a bug, such an edge must exist"
                )
            removed, inserted = found
            edge_set.remove(removed)
            edge_set.add(inserted)
            for v in removed:
                edges = incident[v]
                del edges[bisect_left(edges, removed)]
            for v in inserted:
                insort(incident[v], inserted)
            _move(buckets, donor, dmax, dmax - 1)
            _move(buckets, receiver, dmin, dmin + 1)
            if dmax not in buckets:
                dmax -= 1
            if dmin not in buckets:
                dmin += 1
            swaps.append((removed, inserted))
    if not swaps:
        return H, EdgeTrace(())
    edge_array = np.array(sorted(edge_set), dtype=np.int64) - 1
    return UniformHypergraph(H.r, H.n, edge_array), EdgeTrace(tuple(swaps))


def regularize(H: UniformHypergraph) -> tuple[UniformHypergraph, EdgeTrace]:
    """Rewire edges until all degrees lie within a band of width 1.

    While the maximum and minimum degree differ by at least 2, an edge is
    moved from the lowest-id maximum-degree vertex to the lowest-id
    minimum-degree vertex (first admissible edge in canonical order). The
    output keeps n, m, and r, and differs from H in at most s_measure(H)
    edges; swaps between vertices strictly below and strictly above the
    average-degree band each reduce s_measure by exactly 2.
    """
    return _rewire(H, (tuple(range(1, H.n + 1)),))


def regularize_partitewise(
    H: UniformHypergraph, P: Partition
) -> tuple[UniformHypergraph, EdgeTrace]:
    """Class-preserving variant: within each class, degrees end up within 1.

    Swaps only ever replace a vertex by another vertex of the same class, so
    the output is r-partite with respect to P whenever the input is. The
    output differs from H in at most s_r_measure(H, P) edges.
    """
    _check_partition(H, P)
    return _rewire(H, P.classes)


def analyze(
    H: UniformHypergraph,
    partition: Partition | None = None,
    opts: SpectralOptions | None = None,
) -> IrregularityReport:
    """Solve for the spectral radius and assemble the full measure/bound report."""
    result = spectral_radius(H, opts)
    checks = bound_suite(H, result, partition, opts)
    # bound_suite has checked the partition against H
    s_r = _s_r(H, partition) if partition is not None else None
    avg = average_degree(H)
    return IrregularityReport(
        n=H.n,
        m=H.m,
        r=H.r,
        avg_degree=avg,
        epsilon=float(result.rho) - avg,  # epsilon(), checked by bound_suite
        s=s_measure(H),
        v=v_measure(H),
        s_r=s_r,
        rho=result.rho,
        residual=result.residual,
        converged=result.converged,
        bound_checks=tuple(checks),
    )
