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
input. The (donor, receiver) sequence depends on the degrees alone, so it is
planned before any edge moves; only the vertices that donate keep a sorted
incidence list. After an O(r m + n) setup one swap costs O(r * max degree),
and the output's edges are sorted once, as ``build`` sorts them.
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
    _sort_rows,
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
    if not isinstance(spectral.options, SpectralOptions):
        # the solves made beside the result run at its options
        raise TypeError(
            "expected the SpectralOptions the result was solved at, "
            f"got {type(spectral.options).__name__}"
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
    davg = (H.r * H.m) / H.n
    return _mean_degree_power(H) - davg ** (H.r / (H.r - 1))


def _mean_degree_power(H: UniformHypergraph) -> float:
    """(1/n) sum d_i^(r/(r-1)), summed in sorted order so that the value
    does not depend on the vertex labels."""
    powered = np.sort(H.degree_array).astype(np.float64) ** (H.r / (H.r - 1))
    return float(np.mean(powered))


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
) -> list[BoundCheck]:
    """Evaluate every supported inequality for H at a certified spectral radius.

    ``spectral`` must be the :class:`SpectralResult` of ``spectral_radius(H)``:
    its bracket certifies rho, and a bare float, which carries no
    certificate, or a result whose ``options`` are not SpectralOptions,
    raises TypeError, and a bracket that is not finite or whose
    lower end exceeds its upper end, or that misses the ratios of the result's
    Perron vector on H, raises ValueError. The tolerance of each
    check is ``10 * (certified error + 1e-9)``, with the certified error
    carried to the rho**r scale for ``gm_lower`` and ``hm_lower``. A supplied
    partition is checked against H by the class-preserving rewiring that
    claim2 needs, before any bound is evaluated. Partition-dependent checks
    are emitted as skipped when no partition is supplied. The extra solve
    needed by claim2 runs at ``spectral.options``.
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
    # r / r!^(1/r), of size_upper without a partition and of theorem2_upper
    coef = r / math.factorial(r) ** (1.0 / r)
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

    power_mean = _mean_degree_power(H) ** ((r - 1) / r)
    checks.append(_check("power_mean_lower", power_mean, rho, tol, **if_regular))

    s = s_measure(H)
    checks.append(
        _check("theorem2_upper", rho - davg, coef * (s / 2.0) ** ((r - 1) / r), tol)
    )

    if m == 0:
        checks.append(_skip("theorem2_lower", "no edges"))
    else:
        v = v_measure(H)
        coef_lower = ((r - 1) / m ** (1.0 / r)) * (
            math.factorial(r) ** (1.0 / r) / r**r
        ) ** (1.0 / (r - 1))
        checks.append(_check("theorem2_lower", coef_lower * v, rho - davg, tol))

    if partition is None or 0 in partition.class_sizes:
        reason = "no partition" if partition is None else "empty class"
        checks += [_skip(name, reason) for name in ("theorem1", "claim1", "claim2")]
    else:
        geo = math.prod(partition.class_sizes) ** (1.0 / r)
        s_r = _s_r(H, partition)
        checks.append(
            _check("theorem1", rho - m / geo, (s_r / 2.0) ** ((r - 1) / r), tol)
        )
        checks.append(_check("claim1", (n / r) ** (1.0 / r), geo, tol))
        hat = spectral_radius(regularized, spectral.options)
        tol_hat = _certified_tolerance(hat.certified_error)
        rhs = m / geo + (n / r) ** (1.0 - 1.0 / r)
        checks.append(_check("claim2", hat.rho, rhs, tol_hat))

    return checks


def weyl_check(
    H1: UniformHypergraph,
    spectral: SpectralResult,
    H2: UniformHypergraph,
) -> BoundCheck:
    """Subadditivity of the spectral radius over the edge-set union, given
    ``spectral_radius(H1)``'s result, checked as ``bound_suite`` checks it.
    H2 and the union are solved at ``spectral.options``."""
    _require_certificate(H1, spectral)
    union = union_edges(H1, H2)
    r2 = spectral_radius(H2, spectral.options)
    ru = spectral_radius(union, spectral.options)
    certified = spectral.certified_error + r2.certified_error + ru.certified_error
    return _check("weyl", ru.rho, spectral.rho + r2.rho, _certified_tolerance(certified))


def _plan(members: tuple[int, ...], deg: list[int]) -> list[tuple[int, int]]:
    """The (donor, receiver) pairs that rewire one group of ascending ids, in
    order, from the 0-based degree list ``deg`` alone.

    The donors at level D, for D from the maximum degree down, are the ids
    of degree at least D, ascending; the receivers at level L, for L from
    the minimum up, are the ids of degree at most L, ascending. The i-th
    donor is paired with the i-th receiver until the first pair whose levels
    differ by less than 2. That happens by the time the donors reach level
    a + 1 and the receivers level a, where a is the group's average degree
    rounded down; every degree then lies in [a, a + 1].
    """
    group_deg = [deg[v - 1] for v in members]
    level, receiving = max(group_deg, default=0), min(group_deg, default=0)
    if level - receiving < 2:
        return []
    by_degree: dict[int, list[int]] = {}
    for v, d in zip(members, group_deg):
        by_degree.setdefault(d, []).append(v)
    donors, receivers = by_degree[level], by_degree[receiving]
    i = j = 0
    pairs: list[tuple[int, int]] = []
    while level - receiving >= 2:
        pairs.append((donors[i], receivers[j]))
        i += 1
        j += 1
        # the next level adds its ids to the ascending run of the last one
        if i == len(donors):
            level -= 1
            donors, i = sorted(donors + by_degree.get(level, [])), 0
        if j == len(receivers):
            receiving += 1
            receivers, j = sorted(receivers + by_degree.get(receiving, [])), 0
    return pairs


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

    A swap changes the degrees of its donor and its receiver alone, both in
    one group, so the whole (donor, receiver) sequence follows from the
    input degrees before any edge moves (``_plan``). A donor leaves the
    maximum level D for D - 1 and a receiver the minimum level L for L + 1,
    with D - L >= 2. Donor levels only fall and receiver levels only rise,
    so a raised receiver stays below the donor level and never donates, and
    a lowered donor stays above the receiver level and never receives. The
    vertices at level D are therefore the ids of input degree at least D
    that have not yet donated at D, and those at level L the ids of input
    degree at most L that have not yet received at L, each taken lowest id
    first.

    Only donors' edges are walked, so only donors keep an incidence list,
    sorted, whose length is the donor's degree; a swap updates the lists of
    the donors it touches by bisection. Each edge maps to its row of H's
    edge array, a swap writes the inserted edge over the removed edge's row,
    and ``core._sort_rows`` orders the rewritten rows.
    """
    deg = H.degree_array.tolist()
    plan = [pair for members in groups for pair in _plan(members, deg)]
    if not plan:
        return H, EdgeTrace(())
    incident: dict[int, list[Edge]] = {donor: [] for donor, _ in plan}
    for edge in H.edges:  # canonical order, so every list starts sorted
        for v in edge:
            if v in incident:
                incident[v].append(edge)
    row_of = dict(zip(H.edges, range(H.m)))
    rows = H.edge_array + 1
    swaps: list[tuple[Edge, Edge]] = []
    for donor, receiver in plan:
        for removed in incident[donor]:
            if receiver not in removed:
                candidate = list(removed)
                candidate.remove(donor)
                insort(candidate, receiver)
                inserted = tuple(candidate)
                if inserted not in row_of:
                    break
        else:
            raise RuntimeError(
                f"no swappable edge from vertex {donor} to vertex {receiver}; "
                "this indicates a bug, such an edge must exist"
            )
        row = row_of.pop(removed)
        row_of[inserted] = row
        rows[row] = inserted
        for v in removed:
            if v in incident:
                edges = incident[v]
                del edges[bisect_left(edges, removed)]
        for v in inserted:
            if v in incident:
                insort(incident[v], inserted)
        swaps.append((removed, inserted))
    rows -= 1
    edge_array = _sort_rows(rows, H.n, distinct=True)
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
    checks = bound_suite(H, result, partition)
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
        converged=result.converged,
        bound_checks=tuple(checks),
    )
