import dataclasses
import itertools
import math

import numpy as np
import pytest

from hgirr import (
    HypergraphError,
    Partition,
    analyze,
    average_degree,
    bound_suite,
    build,
    complete_r_partite,
    epsilon,
    is_connected,
    random_r_partite,
    random_uniform,
    s_measure,
    s_r_measure,
    single_edge,
    spectral_radius,
    v_measure,
    weyl_check,
)

from hgirr.irregularity import _edge_degree_products

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


def test_suite_derived_tolerance_mode(two_path):
    res = spectral_radius(two_path)
    checks = bound_suite(two_path, res, check_tolerance=0.0)
    for check in checks:
        if not check.skipped:
            assert check.tolerance >= 10.0 * 1e-9
            assert check.holds


def test_suite_rejects_nan_check_tolerance(two_path):
    res = spectral_radius(two_path)
    with pytest.raises(ValueError, match="check_tolerance must be a number"):
        bound_suite(two_path, res, check_tolerance=float("nan"))


def test_suite_holds_at_derived_tolerance_on_random_instances():
    rng = np.random.default_rng(33)
    for _ in range(20):
        r = int(rng.choice([2, 3, 4]))
        n = int(rng.integers(r, 9))
        m = int(rng.integers(0, math.comb(n, r) + 1))
        H = random_uniform(n, m, r, rng)
        res = spectral_radius(H)
        assert all(c.holds for c in bound_suite(H, res, check_tolerance=0.0))


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
    check = weyl_check(two_path, empty)
    assert check.holds
    assert check.slack == pytest.approx(0.0, abs=1e-9)


def test_weyl_check_self_union(two_path):
    check = weyl_check(two_path, two_path)
    assert check.holds
    assert check.rhs == pytest.approx(2 * check.lhs, rel=1e-8)


def test_weyl_check_disjoint_edges():
    H1 = build(3, 6, [[1, 2, 3]])
    H2 = build(3, 6, [[4, 5, 6]])
    check = weyl_check(H1, H2)
    assert check.lhs == pytest.approx(1.0, abs=1e-9)
    assert check.rhs == pytest.approx(2.0, abs=1e-9)


def test_weyl_check_rank_mismatch(two_path):
    with pytest.raises(HypergraphError, match="rank mismatch"):
        weyl_check(two_path, single_edge(2))


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


def test_edge_degree_products_fall_back_to_exact_integers():
    # complete 8-uniform on 16 vertices: degree 6435 and 6435**8 > 2**63;
    # the values below were recorded with per-edge Python integer products
    edges = list(itertools.combinations(range(1, 17), 8))
    pinned = {
        "full": (
            edges,
            {
                "edge_gm_upper": (6435.000000000384, 6435.0),
                "gm_lower": (2.9402781049884636e30, 2.9402781050194185e30),
                "hm_lower": (2.940278105018616e30, 2.9402781050194185e30),
            },
        ),
        "one edge removed": (
            edges[1:],
            {
                "edge_gm_upper": (6434.50002081236, 6435.0),
                "gm_lower": (2.9384509942075944e30, 2.9384509993159914e30),
                "hm_lower": (2.938450956442179e30, 2.9384509993159914e30),
            },
        ),
    }
    for label, (edge_list, values) in pinned.items():
        H = build(8, 16, edge_list)
        products = _edge_degree_products(H)
        assert products.dtype == object, label
        assert int(products.max()) == 6435**8
        checks = bound_suite(H, spectral_radius(H))
        for name, (lhs, rhs) in values.items():
            check = by_name(checks, name)
            assert (check.lhs, check.rhs) == (lhs, rhs), (label, name)


def test_edge_degree_products_in_int64_match_python_integers():
    rng = np.random.default_rng(8)
    H = random_uniform(12, 150, 4, rng)
    products = _edge_degree_products(H)
    assert products.dtype == np.int64
    deg = H.degree_array.tolist()
    assert products.tolist() == [math.prod(deg[v - 1] for v in e) for e in H.edges]
