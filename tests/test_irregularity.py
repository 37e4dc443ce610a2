import dataclasses
import itertools
import math

import numpy as np
import pytest

import hgirr.irregularity
import hgirr.spectral
from hgirr import (
    HypergraphError,
    Partition,
    analyze,
    average_degree,
    blow_up,
    bound_suite,
    build,
    complete_r_partite,
    epsilon,
    is_connected,
    is_regular,
    random_r_partite,
    random_uniform,
    regularize_partitewise,
    relabel,
    s_measure,
    s_r_measure,
    single_edge,
    spectral_radius,
    union_edges,
    v_measure,
    weyl_check,
)

from helpers import (
    compensated_sum,
    fix_shift,
    loose_path,
    path_with_pendants,
    star_with_tail,
)
from hgirr.irregularity import _certified_tolerance, _edge_degree_products, _logs
from hgirr.spectral import SpectralOptions

CBRT2 = 2.0 ** (1.0 / 3.0)


def by_name(checks, name):
    found = [c for c in checks if c.name == name]
    assert len(found) == 1, f"{name} appears {len(found)} times"
    return found[0]


def test_epsilon_regular_is_zero():
    H, _ = complete_r_partite([2, 2, 2])
    res = spectral_radius(H)
    assert epsilon(H, res) == pytest.approx(0.0, abs=1e-9)
    assert epsilon(single_edge(4), spectral_radius(single_edge(4))) == pytest.approx(
        0.0, abs=1e-9
    )


def test_epsilon_two_path(two_path):
    res = spectral_radius(two_path)
    assert epsilon(two_path, res) == pytest.approx(CBRT2 - 1.2, abs=1e-8)
    assert average_degree(two_path) == 1.2


def test_s_measure_values(two_path, star3):
    assert s_measure(two_path) == 1.6
    assert s_measure(star3) == 24 / 7
    H, _ = complete_r_partite([2, 2, 2])
    assert s_measure(H) == 0.0


def test_v_measure_values(two_path):
    expected = (2**1.5 + 4.0) / 5.0 - 1.2**1.5
    assert v_measure(two_path) == pytest.approx(expected, abs=1e-12)
    H, _ = complete_r_partite([3, 3])
    assert v_measure(H) == 0.0
    path2 = build(2, 3, [[1, 2], [2, 3]])
    assert v_measure(path2) == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_measures_zero_iff_regular():
    rng = np.random.default_rng(21)
    for _ in range(30):
        r = int(rng.choice([2, 3]))
        n = int(rng.integers(r, 9))
        m = int(rng.integers(0, math.comb(n, r) + 1))
        H = random_uniform(n, m, r, rng)
        deg = H.degree_array
        if deg.max() == deg.min():
            assert s_measure(H) == 0.0
            assert v_measure(H) == 0.0
        else:
            assert s_measure(H) > 0.0
            assert v_measure(H) > 0.0


def test_s_r_measure_complete_partite_is_zero():
    H, P = complete_r_partite([2, 3, 2])
    assert s_r_measure(H, P) == 0.0


def test_s_r_measure_two_path(two_path, two_path_partition):
    assert s_r_measure(two_path, two_path_partition) == 0.0


def test_s_r_measure_single_transversal():
    H, P = random_r_partite([1, 1, 2], 1, seed=0)
    assert s_r_measure(H, P) == 1.0


def test_s_r_measure_rejects_invalid_partition(two_path):
    bad = Partition((1, 1, 2, 2, 3), 3)
    with pytest.raises(HypergraphError, match="invalid partition"):
        s_r_measure(two_path, bad)


def test_suite_regular_connected_equalities():
    H, P = complete_r_partite([2, 2, 2])
    res = spectral_radius(H)
    checks = bound_suite(H, res, P)
    for check in checks:
        assert check.holds
    for name in ("cooper_dutle", "row_sum_sandwich", "power_mean_lower"):
        check = by_name(checks, name)
        assert check.equality_expected
        assert check.equality_reason == "regular"
        assert abs(check.slack) <= check.tolerance


def test_suite_complete_partite_size_upper_equality():
    H, P = complete_r_partite([2, 2, 2])
    res = spectral_radius(H)
    assert res.rho == pytest.approx(8 ** (2.0 / 3.0), abs=1e-9)
    check = by_name(bound_suite(H, res, P), "size_upper")
    assert check.equality_expected
    assert abs(check.slack) <= 1e-8


def test_suite_two_path_theorem1_equality(two_path, two_path_partition):
    res = spectral_radius(two_path)
    checks = bound_suite(two_path, res, two_path_partition)
    t1 = by_name(checks, "theorem1")
    assert t1.lhs == pytest.approx(0.0, abs=1e-8)
    assert t1.rhs == 0.0
    assert abs(t1.slack) <= 1e-8
    gm = by_name(checks, "edge_gm_upper")
    assert gm.equality_expected
    assert abs(gm.slack) <= 1e-8


def test_suite_skips_partition_checks_without_partition(two_path):
    res = spectral_radius(two_path)
    checks = bound_suite(two_path, res)
    for name in ("theorem1", "claim1", "claim2"):
        check = by_name(checks, name)
        assert check.skipped
        assert check.skipped_reason == "no partition"
        assert check.holds  # skipped is not failed


def test_suite_skips_degree_product_bounds_on_isolated_vertex():
    H = build(3, 4, [[1, 2, 3]])  # vertex 4 isolated
    res = spectral_radius(H)
    checks = bound_suite(H, res)
    assert by_name(checks, "gm_lower").skipped_reason == "zero degree"
    assert by_name(checks, "hm_lower").skipped_reason == "zero degree"
    # disconnected, so the per-edge geometric-mean upper bound is not asserted
    assert by_name(checks, "edge_gm_upper").skipped_reason == "disconnected"


@pytest.mark.parametrize(
    "edges, n",
    [([[1, 2, 3], [1, 4, 5]], 5), ([[1, 2, 3], [4, 5, 6]], 6), ([[1, 2, 3]], 4)],
)
def test_suite_connectivity_same_for_result_and_float(edges, n):
    # connectivity comes from the components the SpectralResult carries,
    # and must agree with is_connected(H)
    H = build(3, n, edges)
    reason = by_name(bound_suite(H, spectral_radius(H)), "edge_gm_upper").skipped_reason
    assert reason == (None if is_connected(H) else "disconnected")
    assert is_connected(H) == (n == 5)


def test_suite_edgeless():
    H = build(3, 4, [])
    res = spectral_radius(H)
    checks = bound_suite(H, res)
    assert by_name(checks, "edge_gm_upper").skipped_reason == "no edges"
    assert by_name(checks, "theorem2_lower").skipped_reason == "no edges"
    assert by_name(checks, "cooper_dutle").holds
    assert by_name(checks, "theorem2_upper").holds


def test_suite_rejects_float_rho(two_path):
    # a bare float carries no certificate
    with pytest.raises(TypeError, match="SpectralResult"):
        bound_suite(two_path, CBRT2)
    # every bound holds at the exact 2^(1/3), given as a zero-width bracket
    exact = dataclasses.replace(spectral_radius(two_path), rho=CBRT2, bracket=(CBRT2, CBRT2))
    assert all(c.holds for c in bound_suite(two_path, exact))


def test_suite_tolerances_are_the_certified_values():
    H, P = random_r_partite((4, 5, 6), 40, seed=8)
    res = spectral_radius(H)
    rho, r = res.rho, H.r
    rho_scale = 10.0 * (res.certified_error + 1e-9)
    # gm_lower and hm_lower compare rho**r: the certified error times the
    # derivative r * rho**(r-1), plus the rounding of the exp/log means,
    # plus gamma_m of the m-term sums (on the log scale for gm)
    scale = max(1.0, rho) ** r
    noise = 64.0 * np.finfo(np.float64).eps * scale * (1.0 + math.log(scale))
    cert = res.certified_error * r * max(1.0, rho) ** (r - 1) + noise
    ku = (H.m + 4) * np.finfo(np.float64).eps / 2
    gamma_m = ku / (1.0 - ku)
    log_max = math.log(int(_edge_degree_products(H).max()))
    gm_tol = 10.0 * (cert + gamma_m * scale * (1.0 + log_max) + 1e-9)
    hm_tol = 10.0 * (cert + gamma_m * scale + 1e-9)
    hat = spectral_radius(regularize_partitewise(H, P)[0])
    expected = {name: rho_scale for name in (
        "cooper_dutle", "row_sum_sandwich", "size_upper", "edge_gm_upper",
        "power_mean_lower", "theorem2_upper", "theorem2_lower", "theorem1", "claim1",
    )}
    expected.update(gm_lower=gm_tol, hm_lower=hm_tol, claim2=10.0 * (hat.certified_error + 1e-9))
    checks = bound_suite(H, res, P)
    assert {c.name: c.tolerance for c in checks if not c.skipped} == expected
    assert rho_scale > 1e-8 and gm_tol > hm_tol > rho_scale
    assert all(c.holds for c in checks)

    H2 = random_uniform(15, 60, 3, seed=9)
    union = union_edges(H, H2)
    certified = sum(spectral_radius(G).certified_error for G in (H, H2, union))
    assert weyl_check(H, res, H2).tolerance == 10.0 * (certified + 1e-9)


def test_extra_solves_run_at_the_results_options():
    H, P = random_r_partite((4, 5, 6), 40, seed=8)
    opts = SpectralOptions(tolerance=1e-3)
    res = spectral_radius(H, opts)
    regularized = regularize_partitewise(H, P)[0]
    hat = spectral_radius(regularized, opts)
    claim2 = by_name(bound_suite(H, res, P), "claim2")
    assert claim2.tolerance == _certified_tolerance(hat.certified_error)
    # the default solve gives another tolerance, so the check tells them apart
    default = _certified_tolerance(spectral_radius(regularized).certified_error)
    assert claim2.tolerance != default

    H2 = random_uniform(15, 60, 3, seed=9)
    union = union_edges(H, H2)
    certified = sum(spectral_radius(G, opts).certified_error for G in (H, H2, union))
    weyl = weyl_check(H, res, H2)
    assert weyl.tolerance == _certified_tolerance(certified)
    default = res.certified_error + sum(
        spectral_radius(G).certified_error for G in (H2, union)
    )
    assert weyl.tolerance != _certified_tolerance(default)


@pytest.mark.parametrize(
    "bracket",
    [(math.nan, math.nan), (1.3, 1.2), (1.2, math.inf), (-math.inf, 1.3)],
    ids=["nan", "inverted", "infinite-upper", "infinite-lower"],
)
def test_suite_rejects_an_uncertified_bracket(two_path, bracket):
    res = dataclasses.replace(spectral_radius(two_path), bracket=bracket)
    with pytest.raises(ValueError, match="certifies nothing"):
        bound_suite(two_path, res)


@pytest.mark.parametrize(
    "consumer",
    [lambda H, res: epsilon(H, res), lambda H, res: weyl_check(H, res, H)],
    ids=["epsilon", "weyl_check"],
)
@pytest.mark.parametrize(
    "spectral, error, message",
    [
        (CBRT2, TypeError, "SpectralResult"),
        ((math.nan, math.nan), ValueError, "certifies nothing"),
        ((1.3, 1.2), ValueError, "certifies nothing"),
    ],
    ids=["bare-float", "nan-bracket", "inverted-bracket"],
)
def test_result_consumers_refuse_what_bound_suite_refuses(
    two_path, consumer, spectral, error, message
):
    if isinstance(spectral, tuple):
        spectral = dataclasses.replace(spectral_radius(two_path), bracket=spectral)
    with pytest.raises(error, match=message):
        consumer(two_path, spectral)


_CONSUMERS = {
    "bound_suite": bound_suite,
    "epsilon": epsilon,
    "weyl_check": lambda H, res: weyl_check(H, res, H),
}


@pytest.mark.parametrize("consumer", _CONSUMERS.values(), ids=_CONSUMERS.keys())
def test_result_consumers_refuse_a_result_without_options(two_path, consumer):
    # the solves beside the result run at its options: none must not mean
    # the defaults
    res = dataclasses.replace(spectral_radius(two_path), options=None)
    with pytest.raises(TypeError, match="SpectralOptions the result was solved at"):
        consumer(two_path, res)


@pytest.mark.parametrize("consumer", _CONSUMERS.values(), ids=_CONSUMERS.keys())
def test_result_consumers_refuse_another_hypergraphs_result(two_path, consumer):
    # the same n = 5, but 8 edges: its bracket lies far above two_path's rho
    other = build(
        3,
        5,
        [[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5], [2, 3, 5], [2, 4, 5], [3, 4, 5]],
    )
    with pytest.raises(ValueError, match=r"misses the ratios .* on H"):
        consumer(two_path, spectral_radius(other))
    six = build(3, 6, [[1, 2, 3], [1, 4, 5]])
    with pytest.raises(ValueError, match=r"expected a vector of length 5, got shape \(6,\)"):
        consumer(two_path, spectral_radius(six))
    zero = dataclasses.replace(spectral_radius(two_path), perron_vector=np.zeros(5))
    with pytest.raises(ValueError, match=r"misses the ratios \[inf, -inf\]"):
        consumer(two_path, zero)


@pytest.mark.parametrize(
    "H, opts",
    [
        (union_edges(build(3, 12, [[1, 2, 3]]), star_with_tail(4, 1)), None),
        (build(2, 4, [[1, 2]]), None),
        (build(4, 6, []), None),
        (path_with_pendants(1), SpectralOptions(max_iterations=300)),
        (path_with_pendants(2), SpectralOptions(max_iterations=1500)),
        (loose_path(3, 120), None),
        (random_uniform(12, 90, 3, seed=4), SpectralOptions(max_iterations=1)),
    ],
    ids=[
        "disconnected",
        "isolated-vertices",
        "edgeless",
        "unconverged",
        "rejected-newton",
        "newton",
        "one-iteration",
    ],
)
def test_result_consumers_accept_every_genuine_result(H, opts):
    res = spectral_radius(H, opts)
    for consumer in _CONSUMERS.values():
        consumer(H, res)


def test_suite_holds_at_derived_tolerance_on_random_instances():
    rng = np.random.default_rng(33)
    for _ in range(20):
        r = int(rng.choice([2, 3, 4]))
        n = int(rng.integers(r, 9))
        m = int(rng.integers(0, math.comb(n, r) + 1))
        H = random_uniform(n, m, r, rng)
        res = spectral_radius(H)
        assert all(c.holds for c in bound_suite(H, res))


def test_suite_names_unique_and_ordered(two_path, two_path_partition):
    res = spectral_radius(two_path)
    checks = bound_suite(two_path, res, two_path_partition)
    names = [c.name for c in checks]
    assert len(names) == len(set(names))
    assert names == [
        "cooper_dutle",
        "row_sum_sandwich",
        "size_upper",
        "edge_gm_upper",
        "gm_lower",
        "hm_lower",
        "power_mean_lower",
        "theorem2_upper",
        "theorem2_lower",
        "theorem1",
        "claim1",
        "claim2",
    ]


def test_suite_rejects_invalid_partition(two_path):
    res = spectral_radius(two_path)
    with pytest.raises(HypergraphError, match="invalid partition"):
        bound_suite(two_path, res, Partition((1, 1, 2, 2, 3), 3))


def test_suite_skips_the_partition_bounds_on_an_empty_class():
    # only an edgeless hypergraph has a valid partition with an empty class
    H = build(3, 4, [])
    checks = bound_suite(H, spectral_radius(H), Partition((1, 1, 2, 2), 3))
    reasons = {check.name: check.skipped_reason for check in checks}
    for name in ("theorem1", "claim1", "claim2"):
        assert reasons[name] == "empty class"


def test_equality_detector_fires_only_within_tolerance():
    rng = np.random.default_rng(31)
    for _ in range(25):
        r = int(rng.choice([2, 3]))
        n = int(rng.integers(r, 8))
        m = int(rng.integers(0, math.comb(n, r) + 1))
        H = random_uniform(n, m, r, rng)
        res = spectral_radius(H)
        for check in bound_suite(H, res):
            if check.equality_expected:
                assert abs(check.slack) <= check.tolerance


@pytest.mark.parametrize("r,n", [(4, 10), (5, 9), (3, 10)])
def test_suite_on_complete_hypergraphs(r, n):
    # complete instances maximize the rho**r magnitude, which stresses the
    # float-noise handling of the geometric/harmonic mean lower bounds
    import itertools as it

    H = build(r, n, list(it.combinations(range(1, n + 1), r)))
    res = spectral_radius(H)
    assert res.rho == pytest.approx(math.comb(n - 1, r - 1), abs=1e-8)
    for check in bound_suite(H, res):
        assert check.holds, (check.name, check.slack, check.tolerance)


def test_theorem2_lower_never_tighter_than_epsilon():
    rng = np.random.default_rng(32)
    for _ in range(25):
        r = int(rng.choice([2, 3, 4]))
        n = int(rng.integers(r, 9))
        m = int(rng.integers(1, math.comb(n, r) + 1))
        H = random_uniform(n, m, r, rng)
        res = spectral_radius(H)
        check = [c for c in bound_suite(H, res) if c.name == "theorem2_lower"][0]
        assert check.lhs <= epsilon(H, res) + check.tolerance


def test_weyl_check_edgeless_equality(two_path):
    empty = build(3, 5, [])
    check = weyl_check(two_path, spectral_radius(two_path), empty)
    assert check.holds
    assert check.slack == pytest.approx(0.0, abs=1e-9)


def test_weyl_check_self_union(two_path):
    check = weyl_check(two_path, spectral_radius(two_path), two_path)
    assert check.holds
    assert check.rhs == pytest.approx(2 * check.lhs, rel=1e-8)


def test_weyl_check_disjoint_edges():
    H1 = build(3, 6, [[1, 2, 3]])
    H2 = build(3, 6, [[4, 5, 6]])
    check = weyl_check(H1, spectral_radius(H1), H2)
    assert check.lhs == pytest.approx(1.0, abs=1e-9)
    assert check.rhs == pytest.approx(2.0, abs=1e-9)


def test_weyl_check_rank_mismatch(two_path):
    with pytest.raises(HypergraphError, match="rank mismatch"):
        weyl_check(two_path, spectral_radius(two_path), single_edge(2))


def test_analyze_report_fields(two_path, two_path_partition):
    report = analyze(two_path, two_path_partition)
    assert (report.n, report.m, report.r) == (5, 2, 3)
    assert report.converged
    assert report.rho == pytest.approx(CBRT2, abs=1e-8)
    assert report.s == 1.6
    assert report.s_r == 0.0
    assert len(report.bound_checks) == 12
    without = analyze(two_path)
    assert without.s_r is None


def _check_edge_degree_products(pinned):
    edges = list(itertools.combinations(range(1, 17), 8))
    for label, edge_list in (("full", edges), ("one edge removed", edges[1:])):
        H = build(8, 16, edge_list)
        products = _edge_degree_products(H)
        assert products.dtype == object, label
        assert int(products.max()) == 6435**8
        checks = bound_suite(H, spectral_radius(H))
        for name, (lhs, rhs) in pinned[label].items():
            check = by_name(checks, name)
            assert (check.lhs, check.rhs) == (lhs, rhs), (label, name)


# complete 8-uniform on 16 vertices: degree 6435 and 6435**8 > 2**63; the
# figures were recorded with per-edge Python integer products. The complete
# one is regular and converges at its first step, but rho comes back from
# rho + sigma, so its last bit depends on the shift; it is the same at a
# quarter and at the whole of the maximum degree.
_FULL_AT_A_QUARTER = {
    "edge_gm_upper": (6435.000000000384, 6435.0),
    "gm_lower": (2.9402781049884636e30, 2.9402781050194185e30),
    "hm_lower": (2.940278105018616e30, 2.9402781050194185e30),
}


def test_edge_degree_products_fall_back_to_exact_integers(monkeypatch):
    # recorded under the stall detector, which started each component at a
    # twentieth of its maximum degree and raised the shift to a quarter when
    # it stalled; the rank rule that replaced it left these bytes unchanged
    _check_edge_degree_products({
        "full": {
            "edge_gm_upper": (6435.000000000383, 6435.0),
            "gm_lower": (2.9402781049884636e30, 2.940278105019415e30),
            "hm_lower": (2.940278105018616e30, 2.940278105019415e30),
        },
        "one edge removed": {
            "edge_gm_upper": (6434.500020812228, 6435.0),
            "gm_lower": (2.9384509942075944e30, 2.9384509993155095e30),
            "hm_lower": (2.938450956442179e30, 2.9384509993155095e30),
        },
    })
    # recorded with the shift at the whole maximum degree
    fix_shift(monkeypatch, 1.0)
    _check_edge_degree_products({
        "full": _FULL_AT_A_QUARTER,
        "one edge removed": {
            "edge_gm_upper": (6434.50002081236, 6435.0),
            "gm_lower": (2.9384509942075944e30, 2.9384509993159914e30),
            "hm_lower": (2.938450956442179e30, 2.9384509993159914e30),
        },
    })


def test_edge_degree_products_at_a_fixed_quarter_shift_are_unchanged(monkeypatch):
    # recorded when the solver came to shift by a quarter of the maximum degree
    fix_shift(monkeypatch, 0.25)
    _check_edge_degree_products({
        "full": _FULL_AT_A_QUARTER,
        "one edge removed": {
            "edge_gm_upper": (6434.500020812284, 6435.0),
            "gm_lower": (2.9384509942075944e30, 2.938450999315712e30),
            "hm_lower": (2.938450956442179e30, 2.938450999315712e30),
        },
    })


def test_exact_integer_means_do_not_depend_on_the_builtin_sum(monkeypatch):
    # the Python 3.12 sum, compensated, must leave the pinned means as they are
    monkeypatch.setattr(hgirr.irregularity, "sum", compensated_sum, raising=False)
    test_edge_degree_products_fall_back_to_exact_integers(monkeypatch)


def test_edge_degree_products_in_int64_match_python_integers():
    rng = np.random.default_rng(8)
    H = random_uniform(12, 150, 4, rng)
    products = _edge_degree_products(H)
    assert products.dtype == np.int64
    deg = H.degree_array.tolist()
    assert products.tolist() == [math.prod(deg[v - 1] for v in e) for e in H.edges]


def test_gm_lower_has_the_same_bits_on_both_sides_of_the_log_cutoff(monkeypatch):
    # 5000 edges: one log per distinct product at the default cutoff
    assert hgirr.irregularity._DISTINCT_LOGS_FROM <= 5000
    for H in (random_uniform(400, 5000, 3, 3), random_uniform(60, 5000, 4, 3)):
        result = spectral_radius(H)
        suites = []
        for cutoff in (0, H.m + 1):
            monkeypatch.setattr(hgirr.irregularity, "_DISTINCT_LOGS_FROM", cutoff)
            suites.append(bound_suite(H, result))
        assert suites[0] == suites[1]
        assert not by_name(suites[0], "gm_lower").skipped


@pytest.mark.parametrize("r, n, m", [(3, 30, 200), (4, 60, 5000), (10, 15, 300)])
def test_logs_are_those_of_each_product_on_both_sides_of_the_cutoff(monkeypatch, r, n, m):
    # at r = 10 the products exceed int64 and are Python integers
    products = _edge_degree_products(random_uniform(n, m, r, 5))
    expected = np.array([math.log(p) for p in products.tolist()])
    for cutoff in (0, m + 1):
        monkeypatch.setattr(hgirr.irregularity, "_DISTINCT_LOGS_FROM", cutoff)
        assert _logs(products).tobytes() == expected.tobytes()
    assert (products.dtype == object) == (r == 10)


def _copies_of_complete(n, r, copies=1):
    """Disjoint copies of the complete r-uniform hypergraph on n vertices."""
    one = np.array(list(itertools.combinations(range(1, n + 1), r)))
    return build(r, n * copies, np.concatenate([one + n * c for c in range(copies)]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: (_copies_of_complete(44, 3), None),
        lambda: (_copies_of_complete(27, 4), None),
        lambda: complete_r_partite([27, 27, 27]),
        lambda: (_copies_of_complete(8, 4, copies=200), None),
        lambda: (_copies_of_complete(10, 4, copies=1600), None),
    ],
    ids=["K_44^(3)", "K_27^(4)", "K(27,27,27)", "200 K_8^(4)", "1600 K_10^(4)"],
)
def test_equality_cases_of_high_degree_are_certified(make):
    # Regular inputs where each ratio sums hundreds to thousands of terms:
    # rho is the degree d, and a pad that ignores the degree let gm_lower
    # fail and the bracket miss d. The disjoint copies of a complete
    # hypergraph have many edges but a low degree, so only a term growing
    # with m covers the rounding of gm_lower's and hm_lower's m-term sums.
    H, P = make()
    d = int(H.degree_array[0])
    res = spectral_radius(H)
    assert res.bracket[0] <= d <= res.bracket[1]
    checks = bound_suite(H, res, P)
    assert [c.name for c in checks if not c.skipped and not c.holds] == []


def _blown_partite(sizes, k):
    """The blow-up by k of the complete r-partite hypergraph with the given
    class sizes, and its partition: the copies of a vertex share its class."""
    H, P = complete_r_partite(sizes)
    class_of = tuple(c for c in P.class_of for _ in range(k))
    return blow_up(H, k), Partition(class_of, P.num_classes)


def _copies(H, P, copies):
    """Disjoint copies of H side by side, with its partition when given."""
    edges = np.concatenate([H.edge_array + 1 + H.n * c for c in range(copies)])
    Q = None if P is None else Partition(P.class_of * copies, P.num_classes)
    return build(H.r, H.n * copies, edges), Q


@pytest.mark.parametrize(
    "make",
    [
        lambda: (blow_up(_copies_of_complete(7, 2), 4), None),
        lambda: (blow_up(_copies_of_complete(6, 3), 3), None),
        lambda: (blow_up(_copies_of_complete(9, 4), 3), None),
        lambda: _blown_partite([3, 3, 3], 2),
        lambda: _blown_partite([9, 9, 9], 3),
        lambda: _blown_partite([3, 3, 3, 3], 3),
        lambda: _copies(blow_up(_copies_of_complete(5, 2), 2), None, 500),
        lambda: _copies(blow_up(_copies_of_complete(9, 4), 3), None, 20),
        lambda: _copies(*_blown_partite([4, 4, 4], 2), 400),
        lambda: _copies(*_blown_partite([2, 2, 2, 2], 2), 60),
    ],
    ids=[
        "K_7 x4",
        "K_6^(3) x3",
        "K_9^(4) x3",
        "K(3,3,3) x2",
        "K(9,9,9) x3",
        "K(3,3,3,3) x3",
        "500 K_5 x2",
        "20 K_9^(4) x3",
        "400 K(4,4,4) x2",
        "60 K(2,2,2,2) x2",
    ],
)
def test_regular_blow_ups_and_their_copies_are_certified(make):
    # A uniform blow-up of a regular hypergraph is regular, with rho equal
    # to its degree d; disjoint copies keep d and are solved together. With
    # a pad that ignores the degree, the bracket of K_9^(4) x3 (d = 1512)
    # misses d.
    H, P = make()
    assert is_regular(H)
    d = int(H.degree_array[0])
    res = spectral_radius(H)
    assert res.converged
    assert res.bracket[0] <= d <= res.bracket[1]
    report = analyze(H, P)
    assert report.converged
    assert [c.name for c in report.bound_checks if not c.skipped and not c.holds] == []
    if P is not None:
        assert not any(c.skipped for c in report.bound_checks if c.name == "claim2")


def test_power_mean_lower_does_not_depend_on_the_vertex_labels():
    # the powers are summed in sorted order, as v_measure sums them
    H = random_uniform(60, 300, 3, seed=1)
    want = by_name(bound_suite(H, spectral_radius(H)), "power_mean_lower").lhs.hex()
    rng = np.random.default_rng(0)
    for _ in range(40):
        G = relabel(H, (rng.permutation(H.n) + 1).tolist())
        assert by_name(bound_suite(G, spectral_radius(G)), "power_mean_lower").lhs.hex() == want


@pytest.mark.parametrize(
    "make, kernels",
    [
        (lambda: (random_uniform(2000, 20000, 3, seed=1), None), 2),
        (lambda: random_r_partite((20, 25, 30), 400, seed=3), 3),
    ],
    ids=["uniform", "partite"],
)
def test_analyze_builds_one_kernel_per_solve_and_one_for_the_certificate(
    make, kernels, monkeypatch
):
    # One connected component: one kernel for the solve, one for the ratios
    # that _require_certificate recomputes and, with a partition, one for
    # claim2's solve of the rewired hypergraph.
    H, partition = make()
    assert is_connected(H)
    built = []
    real_kernel = hgirr.spectral._kernel

    def recorded_kernel(edges, n):
        built.append(edges.shape)
        return real_kernel(edges, n)

    monkeypatch.setattr(hgirr.spectral, "_kernel", recorded_kernel)
    assert analyze(H, partition).converged
    assert len(built) == kernels
