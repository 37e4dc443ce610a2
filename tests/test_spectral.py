import itertools
import math

import numpy as np
import pytest

from helpers import coupled_tol, dense_rho, reference_apply_adjacency_edges
from hgirr import (
    SpectralOptions,
    apply_adjacency,
    blow_up,
    build,
    complete_r_partite,
    degrees,
    direct_product,
    is_connected,
    random_uniform,
    rayleigh_quotient,
    relabel,
    residual,
    row_sums,
    scaled_row_sums,
    single_edge,
    spectral_radius,
    union_edges,
)

from hgirr.spectral import _apply_adjacency_edges

CBRT2 = 2.0 ** (1.0 / 3.0)


def test_apply_adjacency_single_edge_unit():
    H = single_edge(3)
    np.testing.assert_allclose(apply_adjacency(H, [1.0, 1.0, 1.0]), [1.0, 1.0, 1.0])


def test_apply_adjacency_all_ones_gives_degrees(two_path):
    np.testing.assert_allclose(
        apply_adjacency(two_path, np.ones(5)), [2.0, 1.0, 1.0, 1.0, 1.0]
    )


def reference_apply(edges, x):
    """Independent O(m * r^2) implementation with per-pair products."""
    y = np.zeros(len(x))
    for edge in edges:
        for i in edge:
            prod = 1.0
            for j in edge:
                if j != i:
                    prod *= x[j]
            y[i] += prod
    return y


def test_apply_adjacency_matches_reference():
    rng = np.random.default_rng(99)
    for r in (2, 3, 4, 5):
        H = random_uniform(8, 12, r, rng)
        x = rng.uniform(0.1, 2.0, size=8)
        want = reference_apply(H.edge_array, x)
        np.testing.assert_allclose(apply_adjacency(H, x), want, rtol=1e-12)


def test_apply_adjacency_empty_edge_array():
    H = build(3, 4, [])
    assert np.array_equal(apply_adjacency(H, np.ones(4)), np.zeros(4))


def test_apply_adjacency_symbolic_expansion():
    H = single_edge(3)
    a, b, c = 0.7, 1.3, 2.1
    np.testing.assert_allclose(apply_adjacency(H, [a, b, c]), [b * c, a * c, a * b])
    # leave-one-out: a zero entry must not zero its own row
    np.testing.assert_allclose(apply_adjacency(H, [0.0, b, c]), [b * c, 0.0, 0.0])


def test_apply_adjacency_length_mismatch(two_path):
    with pytest.raises(ValueError, match="length 5"):
        apply_adjacency(two_path, [1.0, 2.0])


def test_row_sums_equal_degrees(two_path, star3):
    for H in (two_path, star3, single_edge(4)):
        np.testing.assert_array_equal(row_sums(H), degrees(H).astype(float))


def test_rayleigh_uniform_on_regular():
    H, _ = complete_r_partite([2, 2, 2])
    x = np.full(H.n, H.n ** (-1.0 / H.r))
    # closed form: r * m / n equals the common degree
    assert rayleigh_quotient(H, x) == pytest.approx(4.0, abs=1e-12)


def test_rayleigh_degree_vector(two_path):
    deg = degrees(two_path).astype(float)
    x = (deg / (two_path.r * two_path.m)) ** (1.0 / two_path.r)
    value = rayleigh_quotient(two_path, x)
    # (1/m) * sum over edges of the r-th root of the degree product
    prods = [np.prod(deg[np.array(e) - 1]) for e in two_path.edges]
    expected = sum(p ** (1.0 / two_path.r) for p in prods) / two_path.m
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(CBRT2, rel=1e-12)


def test_rayleigh_rejects_bad_input(two_path):
    with pytest.raises(ValueError, match="nonnegative"):
        rayleigh_quotient(two_path, [-0.5, 0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="expected 1"):
        rayleigh_quotient(two_path, np.full(5, 0.9))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_spectral_radius_single_edge(r):
    res = spectral_radius(single_edge(r))
    assert res.converged
    assert res.rho == pytest.approx(1.0, abs=1e-9)
    assert res.residual <= 1e-9


def test_spectral_radius_regular_families():
    cases = []
    for r, n in [(2, 5), (3, 6), (4, 6)]:
        edges = list(itertools.combinations(range(1, n + 1), r))
        cases.append((build(r, n, edges), math.comb(n - 1, r - 1)))
    H222, _ = complete_r_partite([2, 2, 2])
    cases.append((H222, 4))
    for H, d in cases:
        res = spectral_radius(H)
        assert res.rho == pytest.approx(d, abs=1e-9)


def test_spectral_radius_two_path(two_path):
    res = spectral_radius(two_path)
    assert res.converged
    assert res.rho == pytest.approx(CBRT2, abs=1e-8)
    assert np.all(res.perron_vector > 0)
    assert res.residual <= 1e-8


def test_spectral_radius_edgeless():
    H = build(3, 4, [])
    res = spectral_radius(H)
    assert res.rho == 0.0
    assert res.converged
    assert res.iterations == 0
    assert res.component_rhos == (0.0, 0.0, 0.0, 0.0)


def test_spectral_radius_component_rule():
    # single edge next to a complete block: rho is the max over components
    edges = [[1, 2, 3]] + [list(e) for e in itertools.combinations(range(4, 9), 3)]
    H = build(3, 8, edges)
    res = spectral_radius(H)
    assert res.rho == pytest.approx(math.comb(4, 2), abs=1e-9)
    assert res.rho == max(res.component_rhos)
    assert len(res.component_rhos) == 2
    assert res.component_rhos[0] == pytest.approx(1.0, abs=1e-9)
    # perron vector is positive and unit in the r-norm on each component
    assert np.all(res.perron_vector > 0)
    for block in (res.perron_vector[:3], res.perron_vector[3:]):
        assert np.sum(block**H.r) == pytest.approx(1.0, rel=1e-12)


def test_spectral_radius_nonconvergence_reports_bracket(two_path):
    res = spectral_radius(two_path, SpectralOptions(tolerance=1e-10, max_iterations=2))
    assert not res.converged
    assert res.iterations == 2
    lo, hi = res.bracket
    assert lo <= res.rho <= hi
    assert hi - lo > 0


def test_certified_bracket_contains_true_value(two_path):
    res = spectral_radius(two_path)
    lo, hi = res.bracket
    assert lo - 1e-12 <= CBRT2 <= hi + 1e-12


def test_scaled_row_sums_identity_scaling(two_path):
    np.testing.assert_allclose(
        scaled_row_sums(two_path, np.ones(5)), degrees(two_path).astype(float)
    )


def test_scaled_row_sums_degree_scaling(two_path):
    p = degrees(two_path).astype(float) ** (1.0 / 3.0)
    np.testing.assert_allclose(scaled_row_sums(two_path, p), np.full(5, CBRT2))


def test_scaled_row_sums_constant_scaling():
    H, _ = complete_r_partite([1, 2, 2])
    np.testing.assert_allclose(
        scaled_row_sums(H, np.full(H.n, 3.7)), degrees(H).astype(float)
    )


def test_scaled_row_sums_rejects_nonpositive(two_path):
    with pytest.raises(ValueError, match="positive"):
        scaled_row_sums(two_path, [1.0, 0.0, 1.0, 1.0, 1.0])


def test_residual_exact_pair():
    H = single_edge(3)
    x = np.full(3, 3 ** (-1.0 / 3.0))
    assert residual(H, 1.0, x) == pytest.approx(0.0, abs=1e-15)


def test_residual_length_mismatch():
    H = single_edge(3)
    with pytest.raises(ValueError, match="length 3"):
        residual(H, 1.0, [1.0, 1.0, 1.0, 5.0])
    with pytest.raises(ValueError, match="length 3"):
        residual(H, 1.0, [1.0, 1.0])


def test_residual_perturbed_positive(two_path):
    res = spectral_radius(two_path)
    x = res.perron_vector.copy()
    x[0] *= 1.5
    assert residual(two_path, res.rho, x) > 1e-3


def test_rho_matches_matrix_eigensolver_for_graphs():
    # for r=2 the adjacency tensor is the adjacency matrix, so the dense
    # symmetric eigensolver is a fully independent oracle
    rng = np.random.default_rng(777)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(0, math.comb(n, 2) + 1))
        H = random_uniform(n, m, 2, rng)
        A = np.zeros((n, n))
        for u, v in H.edges:
            A[u - 1, v - 1] = A[v - 1, u - 1] = 1.0
        expected = float(np.linalg.eigvalsh(A)[-1]) if m else 0.0
        assert spectral_radius(H).rho == pytest.approx(expected, abs=1e-8)


def test_rho_matches_dense_tensor_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 10:
        r = int(rng.choice([2, 3, 4]))
        n = int(rng.integers(r, 7))
        m = int(rng.integers(1, math.comb(n, r) + 1))
        H = random_uniform(n, m, r, rng)
        if not is_connected(H):
            continue
        res = spectral_radius(H)
        assert res.rho == pytest.approx(dense_rho(H), abs=1e-6)
        checked += 1


# ------------------------------------------------------------- invariants

def _random_instance(rng, rs=(2, 3, 4), max_n=9, min_m=0):
    r = int(rng.choice(rs))
    n = int(rng.integers(r, max_n + 1))
    cap = math.comb(n, r)
    m = int(rng.integers(min_m, cap + 1))
    return random_uniform(n, m, r, rng)


def test_row_sum_sandwich_invariant():
    rng = np.random.default_rng(11)
    for _ in range(25):
        H = _random_instance(rng)
        res = spectral_radius(H)
        deg = degrees(H)
        tol = coupled_tol(res)
        assert deg.min() - tol <= res.rho <= deg.max() + tol


def test_rayleigh_dominance_invariant():
    rng = np.random.default_rng(12)
    for _ in range(25):
        H = _random_instance(rng)
        res = spectral_radius(H)
        x = rng.uniform(0.05, 1.0, size=H.n)
        x /= float(np.sum(x**H.r)) ** (1.0 / H.r)
        assert rayleigh_quotient(H, x) <= res.rho + coupled_tol(res)


def test_edge_monotonicity_invariant():
    rng = np.random.default_rng(13)
    for _ in range(20):
        H = _random_instance(rng, max_n=8)
        missing = [
            e
            for e in itertools.combinations(range(1, H.n + 1), H.r)
            if e not in H.edge_set
        ]
        if not missing:
            continue
        extra = missing[int(rng.integers(0, len(missing)))]
        bigger = build(H.r, H.n, list(H.edges) + [list(extra)])
        r1 = spectral_radius(H)
        r2 = spectral_radius(bigger)
        assert r1.rho <= r2.rho + coupled_tol(r1, r2)


def test_blow_up_scaling_invariant():
    rng = np.random.default_rng(14)
    for _ in range(12):
        H = _random_instance(rng, rs=(2, 3), max_n=6, min_m=1)
        k = int(rng.choice([2, 3]))
        base = spectral_radius(H)
        blown = spectral_radius(blow_up(H, k))
        scale = k ** (H.r - 1)
        assert abs(blown.rho - scale * base.rho) <= coupled_tol(base, blown) * scale


def test_direct_product_scaling_invariant():
    rng = np.random.default_rng(15)
    for _ in range(12):
        H = _random_instance(rng, rs=(3,), max_n=6, min_m=1)
        base = spectral_radius(H)
        prod = direct_product(H, single_edge(3))
        assert prod.m == math.factorial(3) * H.m
        got = spectral_radius(prod)
        scale = math.factorial(H.r - 1)
        assert abs(got.rho - scale * base.rho) <= coupled_tol(base, got) * scale


def test_weyl_subadditivity_invariant():
    rng = np.random.default_rng(16)
    for _ in range(15):
        H1 = _random_instance(rng, max_n=8)
        H2 = random_uniform(
            H1.n, int(rng.integers(0, math.comb(H1.n, H1.r) + 1)), H1.r, rng
        )
        r1, r2 = spectral_radius(H1), spectral_radius(H2)
        ru = spectral_radius(union_edges(H1, H2))
        assert ru.rho <= r1.rho + r2.rho + coupled_tol(r1, r2, ru)


def test_diagonal_similarity_invariant():
    rng = np.random.default_rng(17)
    for _ in range(20):
        H = _random_instance(rng)
        res = spectral_radius(H)
        p = rng.uniform(0.2, 3.0, size=H.n)
        assert scaled_row_sums(H, p).max() >= res.rho - coupled_tol(res)


def test_label_invariance():
    rng = np.random.default_rng(18)
    for _ in range(12):
        H = _random_instance(rng)
        perm = rng.permutation(H.n) + 1
        moved = relabel(H, perm.tolist())
        r1, r2 = spectral_radius(H), spectral_radius(moved)
        assert abs(r1.rho - r2.rho) <= coupled_tol(r1, r2)


def test_union_with_components_max_rule():
    rng = np.random.default_rng(19)
    for _ in range(10):
        A = _random_instance(rng, max_n=6, min_m=1)
        B = _random_instance(rng, rs=(A.r,), max_n=6, min_m=1)
        shifted = build(
            A.r,
            A.n + B.n,
            [[v + A.n for v in e] for e in B.edges],
        )
        together = build(A.r, A.n + B.n, [list(e) for e in A.edges] + [list(e) for e in shifted.edges])
        ra, rb = spectral_radius(A), spectral_radius(B)
        rt = spectral_radius(together)
        assert abs(rt.rho - max(ra.rho, rb.rho)) <= coupled_tol(ra, rb, rt)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_kernel_bit_identical_to_cumprod_oracle(r):
    rng = np.random.default_rng(400 + r)
    n = 40
    canonical = random_uniform(n, 150, r, rng).edge_array
    # any rows, in any order, repeated vertices included
    scrambled = rng.integers(0, n, size=(90, r))
    for edges in (canonical, scrambled):
        x = rng.uniform(0.0, 3.0, n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
        x[rng.random(n) < 0.2] = 0.0
        got = _apply_adjacency_edges(edges, x)
        assert np.array_equal(got, reference_apply_adjacency_edges(edges, x))


def test_kernel_without_edges_matches_oracle():
    x = np.linspace(0.0, 1.0, 7)
    for r in (2, 5):
        edges = np.empty((0, r), dtype=np.int64)
        got = _apply_adjacency_edges(edges, x)
        assert np.array_equal(got, reference_apply_adjacency_edges(edges, x))
        assert np.array_equal(got, np.zeros(7))
