import dataclasses
import itertools
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import hgirr.spectral
from helpers import (
    coupled_tol,
    dense_rho,
    fix_shift,
    loose_path,
    path_with_pendants,
    reference_apply_adjacency_edges,
    reference_solve_component,
    reference_spectral_radius,
    residual,
    star_with_tail,
    sunflower,
)
from hgirr import (
    SpectralOptions,
    apply_adjacency,
    blow_up,
    build,
    complete_r_partite,
    components,
    degrees,
    direct_product,
    is_connected,
    random_r_partite,
    random_uniform,
    relabel,
    single_edge,
    spectral_radius,
    union_edges,
)

from hgirr.spectral import (
    _NEWTON_AFTER,
    _kernel,
    _pair_products,
    _solve_group,
    _spectral_radii,
)

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


def test_uniform_vector_quadratic_form_is_the_common_degree():
    H, _ = complete_r_partite([2, 2, 2])
    x = np.full(H.n, H.n ** (-1.0 / H.r))
    # closed form: x^T (A x) = r * m / n equals the common degree
    assert x @ apply_adjacency(H, x) == pytest.approx(4.0, abs=1e-12)


def test_degree_vector_quadratic_form_is_the_mean_edge_root(two_path):
    deg = degrees(two_path).astype(float)
    x = (deg / (two_path.r * two_path.m)) ** (1.0 / two_path.r)
    value = x @ apply_adjacency(two_path, x)
    # (1/m) * sum over edges of the r-th root of the degree product
    prods = [np.prod(deg[np.array(e) - 1]) for e in two_path.edges]
    expected = sum(p ** (1.0 / two_path.r) for p in prods) / two_path.m
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(CBRT2, rel=1e-12)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_spectral_radius_single_edge(r):
    res = spectral_radius(single_edge(r))
    assert res.converged
    assert res.rho == pytest.approx(1.0, abs=1e-9)
    assert residual(single_edge(r), res.rho, res.perron_vector) <= 1e-9


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
    assert residual(two_path, res.rho, res.perron_vector) <= 1e-8


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tolerance": 0.0}, "tolerance must be positive, got 0.0"),
        ({"tolerance": -1e-3}, "tolerance must be positive, got -0.001"),
        ({"tolerance": float("nan")}, "tolerance must be positive, got nan"),
        ({"max_iterations": 0}, "max_iterations must be >= 1, got 0"),
        ({"tolerance": float("inf")}, "tolerance must be below 1, got inf"),
        ({"tolerance": 1.0}, "tolerance must be below 1, got 1.0"),
        ({"max_iterations": 500.0}, "max_iterations must be an integer, got 500.0"),
        ({"max_iterations": 1e5}, "max_iterations must be an integer, got 100000.0"),
        ({"max_iterations": "100"}, "max_iterations must be an integer, got '100'"),
        ({"tolerance": "0.1"}, "tolerance must be a real number, got '0.1'"),
        ({"tolerance": None}, "tolerance must be a real number, got None"),
    ],
)
def test_spectral_options_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SpectralOptions(**kwargs)


def test_spectral_options_has_no_shift():
    with pytest.raises(TypeError):
        SpectralOptions(shift="auto")


def test_certified_bracket_contains_true_value(two_path):
    res = spectral_radius(two_path)
    lo, hi = res.bracket
    assert lo - 1e-12 <= CBRT2 <= hi + 1e-12


def test_ones_vector_row_sums_are_the_degrees(two_path):
    np.testing.assert_allclose(
        apply_adjacency(two_path, np.ones(5)), degrees(two_path).astype(float)
    )


def test_degree_root_scaling_makes_every_row_ratio_rho(two_path):
    p = degrees(two_path).astype(float) ** (1.0 / 3.0)
    np.testing.assert_allclose(apply_adjacency(two_path, p) / p**2, np.full(5, CBRT2))


def test_constant_vector_row_ratios_are_the_degrees():
    H, _ = complete_r_partite([1, 2, 2])
    np.testing.assert_allclose(
        apply_adjacency(H, np.full(H.n, 3.7)) / 3.7**2, degrees(H).astype(float)
    )


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
        # x^T (A x) over unit nonnegative x never exceeds rho
        assert x @ apply_adjacency(H, x) <= res.rho + coupled_tol(res)


def test_edge_monotonicity_invariant():
    rng = np.random.default_rng(13)
    for _ in range(20):
        H = _random_instance(rng, max_n=8)
        missing = [
            e
            for e in itertools.combinations(range(1, H.n + 1), H.r)
            if e not in set(H.edges)
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
        # rho is invariant under the diagonal similarity by p, so the
        # largest row sum (A p)_i / p_i^(r-1) bounds it from above
        assert (apply_adjacency(H, p) / p ** (H.r - 1)).max() >= res.rho - coupled_tol(res)


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


def _kernels_at_every_block_size(edges, n, monkeypatch):
    """_kernel(edges, n) at 1, 7 and 30 edge rows per block and at the
    default. The edge arrays of the tests below have 150 and 90 rows, so 7
    leaves a short last block and 30 divides both."""
    r = edges.shape[1]
    default = hgirr.spectral._BLOCK_TERMS
    for terms in (r, 7 * r, 30 * r, default):
        monkeypatch.setattr(hgirr.spectral, "_BLOCK_TERMS", terms)
        yield _kernel(edges, n)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_kernel_bit_identical_to_cumprod_oracle(r, monkeypatch):
    rng = np.random.default_rng(400 + r)
    n = 40
    canonical = random_uniform(n, 150, r, rng).edge_array
    # any rows, in any order, repeated vertices included
    scrambled = rng.integers(0, n, size=(90, r))
    for edges in (canonical, scrambled):
        x = rng.uniform(0.0, 3.0, n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
        x[rng.random(n) < 0.2] = 0.0
        want = reference_apply_adjacency_edges(edges, x)
        for apply in _kernels_at_every_block_size(edges, n, monkeypatch):
            assert np.array_equal(apply(x), want)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_kernel_reused_across_calls_matches_the_oracle(r, monkeypatch):
    # one kernel, many vectors: every result is its own array, so later calls
    # through the same buffers must leave the earlier results as they were
    rng = np.random.default_rng(430 + r)
    n = 40
    canonical = random_uniform(n, 150, r, rng).edge_array
    scrambled = rng.integers(0, n, size=(90, r))
    for edges in (canonical, scrambled):
        for apply in _kernels_at_every_block_size(edges, n, monkeypatch):
            results = []
            for _ in range(4):
                x = rng.uniform(0.0, 3.0, n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
                x[rng.random(n) < 0.2] = 0.0
                got = apply(x)
                want = reference_apply_adjacency_edges(edges, x)
                assert np.array_equal(got, want)
                results.append((got, want))
            for got, want in results:
                assert np.array_equal(got, want)


def test_kernel_of_many_blocks_matches_the_oracle():
    # 200,000 rows at 10,922 a block: 18 full blocks and a short last one
    H = random_uniform(20000, 200000, 3, seed=1)
    assert -(-H.m // (hgirr.spectral._BLOCK_TERMS // H.r)) == 19
    rng = np.random.default_rng(470)
    apply = _kernel(H.edge_array, H.n)
    for _ in range(2):
        x = rng.uniform(0.0, 3.0, H.n) * 10.0 ** rng.uniform(-8.0, 8.0, H.n)
        x[rng.random(H.n) < 0.2] = 0.0
        assert np.array_equal(apply(x), reference_apply_adjacency_edges(H.edge_array, x))


def test_a_large_kernel_keeps_block_sized_buffers():
    # the writable copy of the index takes 4.8 MB here and the two block
    # buffers 0.5 MB; (m, r) gather and product buffers would add 9.6 MB
    H = random_uniform(20000, 200000, 3, seed=1)
    x = np.ones(H.n)
    tracemalloc.start()
    try:
        _kernel(H.edge_array, H.n)(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_kernel_without_edges_matches_oracle():
    x = np.linspace(0.0, 1.0, 7)
    for r in (2, 5):
        edges = np.empty((0, r), dtype=np.int64)
        got = _kernel(edges, 7)(x)
        assert np.array_equal(got, reference_apply_adjacency_edges(edges, x))
        assert np.array_equal(got, np.zeros(7))


def test_importing_the_package_starts_no_thread():
    # nor does a solve whose rank-3 kernel has 150k terms: every kernel runs
    # on the calling thread
    code = (
        "import sys, threading, hgirr.cli; "
        "print(threading.active_count(), 'concurrent.futures' in sys.modules); "
        "from hgirr import random_uniform, spectral_radius; "
        "spectral_radius(random_uniform(5000, 50_000, 3, seed=1)); "
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["1", "False", "1", "False"]


# ------------------------------------------- power iteration, then Newton-Noda

def _assert_same_solve(got, want):
    """Bit-equal (rho, perron vector, iterations, bracket, converged)."""
    assert got[0].hex() == want[0].hex()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]
    assert [v.hex() for v in got[3]] == [v.hex() for v in want[3]]
    assert got[4] is want[4]


def _seeded_components():
    """Components with edges of seeded uniform, sparse and partite instances."""
    rng = np.random.default_rng(909)
    for kind in itertools.cycle(range(3)):
        if kind == 0:
            H = _random_instance(rng, max_n=12, min_m=1)
        elif kind == 1:
            # sparse: forests and long thin components take the most iterations
            r = int(rng.choice([2, 3, 4]))
            H = random_uniform(40, int(rng.integers(10, 40)), r, rng)
        else:
            sizes = [int(s) for s in rng.integers(1, 6, size=int(rng.integers(2, 5)))]
            m = int(rng.integers(1, math.prod(sizes) + 1))
            H, _ = random_r_partite(sizes, m, rng)
        yield from (sub for _, sub in components(H) if sub.m)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_pair_products_are_the_jacobian_over_r_minus_1(r):
    # (A x)_i is linear in each x_j separately, so column j of its Jacobian
    # is exactly A(x + e_j) - A x
    rng = np.random.default_rng(60 + r)
    H = random_uniform(9, 30, r, rng)
    x = rng.uniform(0.2, 2.0, H.n)
    base = apply_adjacency(H, x)
    jacobian = np.column_stack([apply_adjacency(H, x + np.eye(H.n)[j]) - base for j in range(H.n)])
    rows, cols, weights = _pair_products(H.edge_array, x)
    B = np.zeros((H.n, H.n))
    np.add.at(B, (rows, cols), weights)
    np.testing.assert_allclose(B, jacobian / (r - 1), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(B @ x, base, rtol=1e-12)


def test_solve_matches_the_power_oracle_bit_for_bit_within_the_switch():
    # A component that the power iteration alone finishes within the switch
    # gets the oracle's bits. A few sparse ones take longer (338, 444 and
    # 815 steps) and finish in Newton-Noda steps instead, with a bracket
    # that must still meet the oracle's.
    opts = SpectralOptions()
    slowest, past = 0, 0
    for sub in itertools.islice(_seeded_components(), 700):
        want = reference_solve_component(sub.edge_array, sub.n, sub.r, opts)
        assert want[4]
        got = _solve_group([sub], opts)[0]
        if want[2] > _NEWTON_AFTER:
            past += 1
            assert got[4] and got[2] < want[2]
            assert got[3][0] <= want[3][1] and want[3][0] <= got[3][1]
            continue
        slowest = max(slowest, want[2])
        _assert_same_solve(got, want)
    # the slowest compared component takes 272 steps
    assert slowest > _NEWTON_AFTER * 3 // 4
    assert past > 0


def test_early_newton_phase_encloses_the_dense_radius(monkeypatch):
    # Switch after 3 power iterations, so that Newton steps finish
    # instances of every shape; graphs against the dense eigensolver.
    monkeypatch.setattr(hgirr.spectral, "_NEWTON_AFTER", 3)
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 40:
        H = _random_instance(rng, max_n=8, min_m=1)
        if not is_connected(H):
            continue
        res = spectral_radius(H)
        assert res.converged
        if H.r == 2:
            A = np.zeros((H.n, H.n))
            for u, v in H.edges:
                A[u - 1, v - 1] = A[v - 1, u - 1] = 1.0
            lo, hi = res.bracket
            assert lo - 1e-12 <= float(np.linalg.eigvalsh(A)[-1]) <= hi + 1e-12
        else:
            assert res.rho == pytest.approx(dense_rho(H), abs=1e-6)
        checked += 1


def test_rejected_newton_step_hands_the_budget_back_once(monkeypatch):
    # The star's hub converges long before its tail, so no halving of the
    # Newton step narrows the bracket: the step is rejected, and the power
    # iteration takes the rest of the budget from the last accepted
    # iterate, at the same shift. Newton is not tried again.
    H = star_with_tail(30, 300)
    calls, power, newton = [], [], []
    real_step = hgirr.spectral._newton_step
    real_power = hgirr.spectral._power_steps
    real_newton = hgirr.spectral._newton_steps

    def counted_step(*args):
        calls.append(args)
        return real_step(*args)

    def recorded_power(apply, x, sigma, r, tol, budget):
        out = real_power(apply, x, sigma, r, tol, budget)
        power.append((sigma, budget, out[3]))
        return out

    def recorded_newton(apply, edges, x, lo, hi, sigma, r, tol, budget):
        out = real_newton(apply, edges, x, lo, hi, sigma, r, tol, budget)
        newton.append((sigma, budget, out[3], out[4]))
        return out

    monkeypatch.setattr(hgirr.spectral, "_newton_step", counted_step)
    monkeypatch.setattr(hgirr.spectral, "_power_steps", recorded_power)
    monkeypatch.setattr(hgirr.spectral, "_newton_steps", recorded_newton)
    opts = SpectralOptions()
    _, _, iterations, (lo, hi), converged = _solve_group([H], opts)[0]
    sigma = int(H.degree_array.max()) * hgirr.spectral._SHIFT_HYPER
    [(sigma_n, budget_n, accepted, newton_converged)] = newton
    assert (sigma_n, budget_n, newton_converged) == (sigma, opts.max_iterations - _NEWTON_AFTER, False)
    assert len(calls) == accepted + 1
    first, second = power
    assert first == (sigma, _NEWTON_AFTER, _NEWTON_AFTER)
    assert second[:2] == (sigma, opts.max_iterations - _NEWTON_AFTER - accepted)
    assert converged and iterations == _NEWTON_AFTER + accepted + second[2]
    assert lo <= _cube_rho(H) <= hi


@pytest.mark.parametrize("r, k", [(3, 250), (3, 1000), (2, 799), (4, 300)])
def test_loose_path_converges_to_its_closed_form(r, k, monkeypatch):
    # the power iteration alone needs about k^2 iterations on these
    upper = []
    real_step = hgirr.spectral._newton_step

    def recorded_step(edges, x, lam, r):
        upper.append(lam)
        return real_step(edges, x, lam, r)

    monkeypatch.setattr(hgirr.spectral, "_newton_step", recorded_step)
    res = spectral_radius(loose_path(r, k))
    assert res.converged
    assert _NEWTON_AFTER < res.iterations <= _NEWTON_AFTER + 20
    lo, hi = res.bracket
    rho = (2.0 * math.cos(math.pi / (k + 2))) ** (2.0 / r)
    assert lo <= rho <= hi
    # every step is accepted, and each solves strictly above rho
    assert len(upper) == res.iterations - _NEWTON_AFTER
    assert all(lam > rho for lam in upper)


@pytest.mark.parametrize(
    "make, rho, opts, rejects",
    [
        (lambda: loose_path(3, 1000), lambda H: (2.0 * math.cos(math.pi / 1002)) ** (2.0 / 3.0), None, False),
        (lambda: star_with_tail(50, 200), lambda H: _cube_rho(H), None, True),
        # the input and budget of the "rejected-newton" result in
        # test_irregularity: a few steps are accepted, then one is rejected
        (lambda: path_with_pendants(2), lambda H: _graph_rho(H), SpectralOptions(max_iterations=1500), True),
    ],
    ids=["loose_path(3,1000)", "star_with_tail(50,200)", "rejected-newton"],
)
def test_every_accepted_newton_step_narrows_the_bracket(make, rho, opts, rejects, monkeypatch):
    # Each step solves at the upper ratio of A plus a sixteenth of the
    # bracket width, strictly above rho, and is accepted only when its
    # bracket is strictly narrower; a rejected step leaves x as it was.
    H = make()
    steps, phases = [], []
    real_step = hgirr.spectral._newton_step
    real_newton = hgirr.spectral._newton_steps

    def recorded_newton(apply, edges, x, lo, hi, sigma, r, tol, budget):
        def recorded_step(edges, x, lam, r):
            _, ratios = hgirr.spectral._shifted_ratios(apply, x, sigma, r)
            steps.append((float(ratios.min()), float(ratios.max()), lam))
            return real_step(edges, x, lam, r)

        monkeypatch.setattr(hgirr.spectral, "_newton_step", recorded_step)
        out = real_newton(apply, edges, x, lo, hi, sigma, r, tol, budget)
        phases.append(((lo, hi), out, sigma, budget))
        return out

    monkeypatch.setattr(hgirr.spectral, "_newton_steps", recorded_newton)
    res = spectral_radius(H, opts)
    [((lo, hi), (_, end_lo, end_hi, accepted, converged), sigma, budget)] = phases
    assert steps[0][:2] == (lo, hi)
    chain = [*(step[:2] for step in steps), (end_lo, end_hi)]
    widths = [b - a for a, b in chain]
    assert all(later < earlier for earlier, later in zip(widths[:accepted], widths[1 : accepted + 1]))
    assert converged is not rejects
    if rejects:
        # a rejected step hands back the x it started from
        assert accepted < budget and len(steps) == accepted + 1
        assert chain[-1] == chain[-2]
    else:
        assert len(steps) == accepted
    true_rho = rho(H)
    for a, b, lam in steps:
        assert lam == b - sigma + (b - a) / 16
        assert lam > true_rho
    lo_c, hi_c = res.bracket
    assert lo_c - 1e-12 * true_rho <= true_rho <= hi_c + 1e-12 * true_rho


def test_newton_steps_count_against_max_iterations():
    budget = _NEWTON_AFTER + 2
    res = spectral_radius(loose_path(3, 250), SpectralOptions(max_iterations=budget))
    assert not res.converged
    assert res.iterations == budget
    lo, hi = res.bracket
    assert lo <= (2.0 * math.cos(math.pi / 252)) ** (2.0 / 3.0) <= hi


def test_certificate_holds_when_the_solve_does_not_converge():
    # Neither phase converges within the budget here, but the bracket of
    # the last iterate still encloses the largest adjacency eigenvalue.
    H = path_with_pendants()
    res = spectral_radius(H, SpectralOptions(max_iterations=2000))
    assert not res.converged
    A = np.zeros((H.n, H.n))
    rows, cols = H.edge_array.T
    A[rows, cols] = A[cols, rows] = 1.0
    lam = float(np.linalg.eigvalsh(A)[-1])
    assert lam == pytest.approx(2.427178664967756, rel=1e-12)
    lo, hi = res.bracket
    assert lo <= lam <= hi


# ------------------------------------------- the shift and its pad

def _graph_rho(H) -> float:
    """Largest adjacency eigenvalue of a graph (r = 2)."""
    A = np.zeros((H.n, H.n))
    rows, cols = H.edge_array.T
    A[rows, cols] = A[cols, rows] = 1.0
    return float(np.linalg.eigvalsh(A)[-1])


def _cube_rho(H) -> float:
    """Radius of a 3-uniform H whose edges [a, b, c] are the edges [a, c] of
    a graph G with a new middle vertex b, such as star_with_tail: the cube
    of G has radius rho(G)^(2/3), as the loose path has."""
    G = build(2, H.n, H.edge_array[:, [0, 2]] + 1)
    return _graph_rho(G) ** (2.0 / 3.0)


def _sunflower_rho(H) -> float:
    """Radius of a sunflower with m petals of rank r: m^(1/r). At the Perron
    vector the core is rho times a petal vertex, and the core's row reads
    m p^(r-1) = rho (rho p)^(r-1)."""
    return H.m ** (1.0 / H.r)


def _odd_bipartite_r4():
    """A connected, non-regular 4-uniform hypergraph on 4 + 8 vertices whose
    every edge has exactly one vertex among the first 4: odd-bipartite."""
    rng = np.random.default_rng(404)
    draws = [(int(rng.integers(1, 5)), *rng.choice(np.arange(5, 13), 3, replace=False).tolist())
             for _ in range(60)]
    H = build(4, 12, {tuple(sorted(edge)) for edge in draws})
    assert is_connected(H) and len(set(H.degree_array.tolist())) > 1
    assert all(sum(v <= 4 for v in edge) == 1 for edge in H.edges)
    return H


_SLOW_SHAPES = {
    # bipartite and odd-bipartite: both have the eigenvalue -rho
    "K(20,30)": (lambda: complete_r_partite((20, 30))[0], _graph_rho, None),
    "K(5,40)": (lambda: complete_r_partite((5, 40))[0], _graph_rho, None),
    "odd-bipartite r=4": (_odd_bipartite_r4, dense_rho, None),
    # positive slow modes: the shift of the whole maximum degree takes 14,921
    # iterations on the star, a quarter of it 3,907, a twentieth 1,343; the
    # sunflower takes 291 at a quarter and 68 at a twentieth
    "star_with_tail(50,200)": (lambda: star_with_tail(50, 200), _cube_rho, 2_000),
    "sunflower(5,200)": (lambda: sunflower(5, 200), _sunflower_rho, None),
    "path_with_pendants(2)": (lambda: path_with_pendants(2), _graph_rho, None),
    "path_with_pendants(3)": (lambda: path_with_pendants(3), _graph_rho, None),
}


@pytest.mark.parametrize("shape", _SLOW_SHAPES)
def test_slow_shapes_converge_at_the_default_shift(shape):
    make, reference, budget = _SLOW_SHAPES[shape]
    H = make()
    rho = reference(H)
    opts = SpectralOptions() if budget is None else SpectralOptions(max_iterations=budget)
    res = spectral_radius(H, opts)
    assert res.converged
    lo, hi = res.bracket
    assert lo - 1e-12 * rho <= rho <= hi + 1e-12 * rho


@pytest.mark.parametrize("shape", _SLOW_SHAPES)
def test_slow_shapes_take_no_more_iterations_than_at_a_quarter_shift(shape, monkeypatch):
    # A graph shifts by a quarter of D, so it takes the quarter shift's
    # iterations and bits; a shape of rank 3 or more shifts by a twentieth,
    # which never slows it down, whatever the sign of its slow mode.
    make, _, budget = _SLOW_SHAPES[shape]
    H = make()
    opts = SpectralOptions() if budget is None else SpectralOptions(max_iterations=budget)
    res = spectral_radius(H, opts)
    assert res.converged
    fix_shift(monkeypatch, hgirr.spectral._SHIFT_GRAPH)
    if H.r == 2:
        _assert_same_result(res, spectral_radius(H, opts))
    else:
        quarter = spectral_radius(H)
        assert quarter.converged and res.iterations <= quarter.iterations


def test_bracket_pad_is_keyed_on_the_maximum_degree(monkeypatch):
    # The hub of a 200-petal star has degree D = 200 while the shift is a
    # fraction of it; each hub ratio sums D products, so the pad must count
    # D roundings whatever the shift.
    H = star_with_tail(200, 0)
    degree = int(H.degree_array.max())
    assert degree == 200
    finals = []
    real_power = hgirr.spectral._power_steps

    def recorded_power(apply, x, sigma, r, tol, budget):
        out = real_power(apply, x, sigma, r, tol, budget)
        finals.append((sigma, out))
        return out

    monkeypatch.setattr(hgirr.spectral, "_power_steps", recorded_power)
    res = spectral_radius(H)
    assert res.converged and len(finals) == 1
    sigma, (_, lo, hi, _, _) = finals[0]
    assert sigma < degree
    pad = hgirr.spectral._gamma(degree + 2 * H.r + 4) * max(1.0, hi)
    assert res.bracket[0] <= lo - sigma - pad
    assert res.bracket[1] >= hi - sigma + pad


def _recorded_shifts(monkeypatch):
    """(r, D, sigma) of every bracket _certified_bracket pads from then on."""
    shifts = []
    real_bracket = hgirr.spectral._certified_bracket

    def recorded_bracket(lo, hi, sigma, degree, r):
        shifts.append((r, degree, sigma))
        return real_bracket(lo, hi, sigma, degree, r)

    monkeypatch.setattr(hgirr.spectral, "_certified_bracket", recorded_bracket)
    return shifts


@pytest.mark.parametrize(
    "shape, quarter", [("K(20,30)", True), ("K(5,40)", True), ("odd-bipartite r=4", False)]
)
def test_minus_rho_shapes_lose_at_most_the_window(shape, quarter, monkeypatch):
    # Their spectrum holds -rho. The bipartite graphs shift by a quarter of D
    # from the first step, so they lose nothing to the fixed quarter shift:
    # the same bits. The odd-bipartite input, of rank 4, keeps the small
    # shift, at which no mode of its step comes near -1, and is faster there.
    H = _SLOW_SHAPES[shape][0]()
    shifts = _recorded_shifts(monkeypatch)
    res = spectral_radius(H)
    [(_, degree, sigma)] = shifts
    fraction = hgirr.spectral._SHIFT_GRAPH if quarter else hgirr.spectral._SHIFT_HYPER
    assert sigma == degree * fraction
    fix_shift(monkeypatch, hgirr.spectral._SHIFT_GRAPH)
    fixed = spectral_radius(H)
    assert res.converged and fixed.converged
    if quarter:
        _assert_same_result(res, fixed)
        assert res.iterations == {"K(20,30)": 36, "K(5,40)": 15}[shape]
    else:
        assert res.iterations < fixed.iterations


def _pair_matrix_floor(H):
    """rho and the smallest eigenvalue of D^-1/2 B D^-1/2 at H's converged
    Perron vector x, with D = diag(x^(r-2)) and B from _pair_products."""
    res = spectral_radius(H)
    assert res.converged and len(res.component_rhos) == 1
    x = res.perron_vector
    rows, cols, weights = _pair_products(H.edge_array, x)
    B = np.zeros((H.n, H.n))
    np.add.at(B, (rows, cols), weights)
    scale = x ** (-(H.r - 2) / 2.0)
    return res.rho, float(np.linalg.eigvalsh(scale[:, None] * B * scale)[0])


@pytest.mark.parametrize(
    "make, attained",
    [
        (lambda: complete_r_partite((20, 30))[0], True),
        (lambda: complete_r_partite((4, 5, 6))[0], True),
        (lambda: loose_path(3, 40), True),
        (_odd_bipartite_r4, True),
        (lambda: star_with_tail(10, 20), True),
        (lambda: random_uniform(12, 80, 3, seed=3), False),
        (lambda: random_uniform(10, 90, 4, seed=4), False),
        (lambda: random_uniform(9, 60, 5, seed=5), False),
    ],
    ids=["K(20,30)", "K(4,5,6)", "loose_path(3,40)", "odd-bipartite r=4",
         "star_with_tail(10,20)", "random r=3", "random r=4", "random r=5"],
)
def test_pair_matrix_is_at_least_minus_rho_over_r_minus_1(make, attained):
    # Each edge adds (p_e/(r-1)) (u u^T - diag u^2) to B, u = 1/x, so
    # B >= -(rho/(r-1)) D at the Perron vector: the linearised step keeps
    # every eigenvalue above -1/(r-1) whatever the shift. Equality needs a
    # w != 0 whose sum over every edge is 0, which these shapes have. For
    # r = 2 the bound is -rho, which the bipartite K(20,30) reaches: its
    # step has the mode (sigma - rho)/(rho + sigma), near -1 at a small
    # shift, so graphs keep a quarter of D.
    H = make()
    assert is_connected(H)
    rho, floor = _pair_matrix_floor(H)
    assert floor >= -rho / (H.r - 1) - 1e-9 * rho
    if attained:
        assert floor == pytest.approx(-rho / (H.r - 1), rel=1e-8)
    else:
        assert floor > -rho / (H.r - 1) + 1e-3 * rho


@pytest.mark.parametrize("r, n, m", [(3, 2000, 3000), (3, 2000, 20000), (4, 2000, 2000), (4, 5000, 100000)])
def test_random_inputs_keep_the_small_shift(r, n, m, monkeypatch):
    H = random_uniform(n, m, r, seed=1)
    shifts = _recorded_shifts(monkeypatch)
    res = spectral_radius(H)
    assert res.converged and shifts
    assert all(sigma == degree * hgirr.spectral._SHIFT_HYPER for _, degree, sigma in shifts)
    fix_shift(monkeypatch, hgirr.spectral._SHIFT_GRAPH)
    assert res.iterations < spectral_radius(H).iterations


def test_a_batch_of_both_shift_fractions_matches_the_loop_bit_for_bit(monkeypatch):
    # graphs, K(20,30) among random ones, shift by a quarter of D and
    # 3-uniform pieces by a twentieth, in one _spectral_radii call
    rng = np.random.default_rng(2022)
    bipartite = complete_r_partite((20, 30))[0]
    hypergraphs = [
        _disjoint_union([bipartite, *(random_uniform(12, 40, 2, rng) for _ in range(6))]),
        _disjoint_union([random_uniform(30, 200, 3, rng) for _ in range(8)]),
        bipartite,
        _disjoint_union([random_uniform(10, 30, 3, rng) for _ in range(5)], isolated=2),
    ]
    shifts = _recorded_shifts(monkeypatch)
    got = _spectral_radii(hypergraphs, SpectralOptions())
    fraction = {2: hgirr.spectral._SHIFT_GRAPH, 3: hgirr.spectral._SHIFT_HYPER}
    assert sorted({rank for rank, _, _ in shifts}) == [2, 3]
    assert all(sigma == degree * fraction[rank] for rank, degree, sigma in shifts)
    monkeypatch.undo()
    for H, result in zip(hypergraphs, got):
        _assert_same_result(result, reference_spectral_radius(H))


@pytest.mark.parametrize(
    "make, phases",
    [
        (lambda: loose_path(3, 250), ["power", "newton"]),
        (lambda: star_with_tail(30, 300), ["power", "newton", "power"]),
    ],
    ids=["newton", "power fallback"],
)
def test_an_open_component_builds_one_kernel_for_every_phase(make, phases, monkeypatch):
    # one kernel for the component's continuation, which every phase takes
    built, handed = [], []
    real_kernel = hgirr.spectral._kernel
    real_power = hgirr.spectral._power_steps
    real_newton = hgirr.spectral._newton_steps

    def recorded_kernel(edges, n):
        built.append(real_kernel(edges, n))
        return built[-1]

    def recorded_power(apply, *args):
        handed.append(("power", apply))
        return real_power(apply, *args)

    def recorded_newton(apply, *args):
        handed.append(("newton", apply))
        return real_newton(apply, *args)

    monkeypatch.setattr(hgirr.spectral, "_kernel", recorded_kernel)
    monkeypatch.setattr(hgirr.spectral, "_power_steps", recorded_power)
    monkeypatch.setattr(hgirr.spectral, "_newton_steps", recorded_newton)
    assert spectral_radius(make()).converged
    assert len(built) == 1
    assert [phase for phase, _ in handed] == phases
    assert all(apply is built[0] for _, apply in handed)


# ------------------------------------------- components of one rank at once

def _assert_same_result(got, want):
    """Every SpectralResult field equal bit for bit, the options it was
    solved at included."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
        elif isinstance(b, float):
            assert a.hex() == b.hex(), field.name
        elif isinstance(b, tuple):
            assert [v.hex() for v in a] == [v.hex() for v in b], field.name
        else:
            assert type(a) is type(b) and a == b, field.name


def _disjoint_union(pieces, isolated=0):
    """The pieces (all of one rank) side by side on consecutive vertex ids,
    then ``isolated`` vertices without edges."""
    offsets = np.cumsum([0] + [H.n for H in pieces])
    edges = np.concatenate([H.edge_array + 1 + o for H, o in zip(pieces, offsets)])
    return build(pieces[0].r, int(offsets[-1]) + isolated, edges)


def _mixed_union(rng, r, count):
    """Random pieces of rank r and mixed sizes, several of each size, some
    disconnected themselves, with a loose path that the power iteration
    alone does not finish within _NEWTON_AFTER steps."""
    pieces = [loose_path(r, 40)]
    for _ in range(count):
        n = int(rng.integers(r + 1, 11))
        m = int(rng.integers(1, math.comb(n, r) + 1))
        pieces.append(random_uniform(n, m, r, rng))
    order = rng.permutation(len(pieces))
    return _disjoint_union([pieces[i] for i in order], isolated=3)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_components_solved_together_match_the_loop_bit_for_bit(r):
    H = _mixed_union(np.random.default_rng(50 + r), r, 60)
    assert len(components(H)) > 60
    want = reference_spectral_radius(H)
    assert want.iterations > _NEWTON_AFTER
    _assert_same_result(spectral_radius(H), want)


def _assert_upper_end_is_the_vectors_own(H, upper, x):
    """The maximum ratio (A x)_i / x_i^(r-1) over the vertices of H with
    x_i > 0 is ``upper`` within two of _certified_bracket's pads: the
    solver's and the rounding of this evaluation."""
    positive = x > 0
    high = float((apply_adjacency(H, x)[positive] / x[positive] ** (H.r - 1)).max())
    degree = int(H.degree_array.max())
    _, padded = hgirr.spectral._certified_bracket(high, high, 0.0, degree, H.r)
    assert abs(upper - high) <= 2 * (padded - high)


@pytest.mark.parametrize(
    "make",
    [
        *(
            pytest.param(
                lambda r=r, seed=seed: random_uniform(300, 1500, r, seed=seed),
                id=f"random r={r} seed={seed}",
            )
            for r in (2, 3, 4)
            for seed in (0, 1, 2)
        ),
        pytest.param(lambda: loose_path(3, 250), id="newton"),
        pytest.param(lambda: star_with_tail(30, 300), id="power fallback"),
        pytest.param(lambda: _mixed_union(np.random.default_rng(52), 3, 60), id="mixed union"),
    ],
)
def test_the_bracket_is_that_of_the_returned_perron_vector(make):
    H = make()
    res = spectral_radius(H)
    assert res.converged
    _assert_upper_end_is_the_vectors_own(H, res.bracket[1], res.perron_vector)


@pytest.mark.parametrize("budget", [1, 2, 7])
def test_an_exhausted_budget_returns_the_vector_it_measured_last(budget):
    H = random_uniform(300, 1500, 3, seed=0)
    res = spectral_radius(H, SpectralOptions(max_iterations=budget))
    assert not res.converged and res.iterations == budget
    _assert_upper_end_is_the_vectors_own(H, res.bracket[1], res.perron_vector)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_a_batch_returns_the_vector_of_each_components_bracket(r):
    H = _mixed_union(np.random.default_rng(60 + r), r, 40)
    subs = [sub for _, sub in components(H) if sub.m]
    solutions = _solve_group(subs, SpectralOptions())
    assert sum(converged for *_, converged in solutions) > 30
    for sub, (_, x, _, bracket, converged) in zip(subs, solutions):
        if converged:
            _assert_upper_end_is_the_vectors_own(sub, bracket[1], x)


@pytest.mark.parametrize("newton_after", [1, 3, 40])
def test_batch_hands_open_components_to_newton_bit_for_bit(newton_after, monkeypatch):
    monkeypatch.setattr(hgirr.spectral, "_NEWTON_AFTER", newton_after)
    for r in (2, 3):
        H = _mixed_union(np.random.default_rng(70 + r), r, 30)
        _assert_same_result(spectral_radius(H), reference_spectral_radius(H))


# The union's loose path is its only component left open at the switch,
# and it converges in three Newton-Noda steps; 302 stops it after two.
@pytest.mark.parametrize("budget", [1, 7, 150, 302])
def test_batch_under_a_small_budget_matches_the_loop_bit_for_bit(budget):
    opts = SpectralOptions(max_iterations=budget)
    H = _mixed_union(np.random.default_rng(90), 3, 40)
    want = reference_spectral_radius(H, opts)
    assert not want.converged
    _assert_same_result(spectral_radius(H, opts), want)


def test_batch_with_a_component_beyond_the_sum_buffer_matches_the_loop():
    # a row longer than numpy's default buffer (8192 elements) must still
    # sum as the component's own vector does
    rng = np.random.default_rng(93)
    big = random_uniform(9000, 40000, 3, rng)
    assert len(components(big)) == 1
    small = [random_uniform(6, 8, 3, rng) for _ in range(20)]
    H = _disjoint_union([big, *small])
    _assert_same_result(spectral_radius(H), reference_spectral_radius(H))


def test_spectral_radii_match_separate_solves_of_mixed_ranks():
    rng = np.random.default_rng(95)
    hypergraphs = [_random_instance(rng, max_n=12) for _ in range(120)]
    hypergraphs.append(build(3, 5, []))
    got = _spectral_radii(hypergraphs, SpectralOptions())
    assert len(got) == len(hypergraphs)
    for H, result in zip(hypergraphs, got):
        _assert_same_result(result, reference_spectral_radius(H))


def test_a_result_carries_the_options_it_was_solved_at(two_path):
    assert spectral_radius(two_path).options == SpectralOptions()
    opts = SpectralOptions(tolerance=1e-4, max_iterations=50)
    assert spectral_radius(two_path, opts).options is opts
    edgeless = build(3, 4, [])
    assert [res.options for res in _spectral_radii([two_path, edgeless], opts)] == [opts] * 2


@pytest.mark.parametrize("kind", ["mixed union", "connected path"])
def test_batch_steps_only_while_two_components_are_open(kind, monkeypatch):
    # Every component finishes in _finish_component after the batch loop, so
    # the adjacency products before the first _power_steps call are the
    # batched steps; each runs on a layout of two or more components, and
    # the last open component continues in _power_steps from the step at
    # which the batch handed it over.
    if kind == "mixed union":
        H = _mixed_union(np.random.default_rng(97), 3, 30)
    else:
        H = loose_path(3, 40)
    products, power_calls = [], []
    real_kernel = hgirr.spectral._kernel
    real_power = hgirr.spectral._power_steps

    def recorded_kernel(edges, n):
        apply = real_kernel(edges, n)

        def recorded_apply(x):
            if not power_calls:
                products.append(edges)
            return apply(x)

        return recorded_apply

    def recorded_power(apply, x, sigma, r, tol, budget):
        power_calls.append((x.shape[0], budget))
        return real_power(apply, x, sigma, r, tol, budget)

    monkeypatch.setattr(hgirr.spectral, "_kernel", recorded_kernel)
    monkeypatch.setattr(hgirr.spectral, "_power_steps", recorded_power)
    res = spectral_radius(H)
    assert res.converged and res.iterations > _NEWTON_AFTER
    layouts = {(e.shape[0], int(e.max())): e for e in products}
    for edges in layouts.values():
        assert len(components(build(3, int(edges.max()) + 1, edges + 1))) >= 2
    path = loose_path(3, 40)
    steps = len(products)
    assert power_calls[0] == (path.n, _NEWTON_AFTER - steps)
    if kind == "mixed union":
        assert 0 < steps < _NEWTON_AFTER
    else:
        assert steps == 0
