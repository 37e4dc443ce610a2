import dataclasses
import itertools
import math
import multiprocessing
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import hgirr.spectral
from helpers import (
    coupled_tol,
    dense_rho,
    loose_path,
    path_with_pendants,
    reference_apply_adjacency_edges,
    reference_solve_component,
    reference_spectral_radius,
    star_with_tail,
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
    residual,
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
        got = _kernel(edges, n)(x)
        assert np.array_equal(got, reference_apply_adjacency_edges(edges, x))


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_kernel_reused_across_calls_matches_the_oracle(r):
    # one kernel, many vectors: every result is its own array, so later calls
    # through the same buffers must leave the earlier results as they were
    rng = np.random.default_rng(430 + r)
    n = 40
    canonical = random_uniform(n, 150, r, rng).edge_array
    scrambled = rng.integers(0, n, size=(90, r))
    for edges in (canonical, scrambled):
        apply = _kernel(edges, n)
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


def test_kernel_without_edges_matches_oracle():
    x = np.linspace(0.0, 1.0, 7)
    for r in (2, 5):
        edges = np.empty((0, r), dtype=np.int64)
        got = _kernel(edges, 7)(x)
        assert np.array_equal(got, reference_apply_adjacency_edges(edges, x))
        assert np.array_equal(got, np.zeros(7))


# ------------------------------------------- kernels split across two threads

@pytest.fixture
def submissions(monkeypatch):
    """Every kernel splits (two CPUs assumed, no size threshold); the list
    collects the first-half runs handed to the helper thread."""
    sent = []
    real_pool = hgirr.spectral._helper_pool

    class Counting:
        def submit(self, fn, *args):
            sent.append(fn)
            return real_pool().submit(fn, *args)

    monkeypatch.setattr(hgirr.spectral, "_SPLIT_TERMS", 0)
    monkeypatch.setattr(hgirr.spectral, "_cpus", lambda: 2)
    monkeypatch.setattr(hgirr.spectral, "_helper_pool", Counting)
    return sent


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_split_kernel_bit_identical_to_the_oracle(r, submissions):
    rng = np.random.default_rng(460 + r)
    n = 40
    canonical = random_uniform(n, 151, r, rng).edge_array
    # any rows, in any order, repeated vertices included; odd m gives halves
    # of unequal size, and m = 1 an empty first half
    scrambled = rng.integers(0, n, size=(91, r))
    applied = 0
    for edges in (canonical, scrambled, canonical[:1], scrambled[:2]):
        apply = _kernel(edges, n)
        for _ in range(3):
            x = rng.uniform(0.0, 3.0, n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
            x[rng.random(n) < 0.2] = 0.0
            assert np.array_equal(apply(x), reference_apply_adjacency_edges(edges, x))
            applied += 1
    # every apply ran its first half on the helper thread
    assert len(submissions) == applied


def test_kernel_splits_only_from_rank_3_and_the_term_threshold(monkeypatch, submissions):
    rng = np.random.default_rng(470)
    x = rng.uniform(0.5, 1.5, 40)
    for r in (2, 3):
        _kernel(random_uniform(40, 100, r, rng).edge_array, 40)(x)
    assert len(submissions) == 1
    monkeypatch.setattr(hgirr.spectral, "_SPLIT_TERMS", 300)
    _kernel(random_uniform(40, 99, 3, rng).edge_array, 40)(x)
    _kernel(random_uniform(40, 100, 3, rng).edge_array, 40)(x)
    assert len(submissions) == 2
    monkeypatch.setattr(hgirr.spectral, "_cpus", lambda: 1)
    _kernel(random_uniform(40, 100, 3, rng).edge_array, 40)(x)
    assert len(submissions) == 2


def test_importing_the_package_starts_no_thread():
    code = (
        "import sys, threading, hgirr.cli; "
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["1", "False"]


def _helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("hgirr-kernel")]


def test_many_large_kernels_start_at_most_one_thread(monkeypatch):
    monkeypatch.setattr(hgirr.spectral, "_cpus", lambda: 2)
    before = threading.active_count()
    helpers = len(_helper_threads())
    rng = np.random.default_rng(480)
    n, m = 5000, 50_000
    assert 3 * m >= hgirr.spectral._SPLIT_TERMS
    edges = random_uniform(n, m, 3, rng).edge_array
    x = rng.uniform(0.5, 1.5, n)
    want = reference_apply_adjacency_edges(edges, x)
    same = []

    def apply_many():
        for _ in range(10):
            same.append(np.array_equal(_kernel(edges, n)(x), want))

    # more callers than cores, switching often, race to make the helper
    callers = [threading.Thread(target=apply_many) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        apply_many()
        for caller in callers:
            caller.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert len(same) == 40 and all(same)
    assert len(_helper_threads()) <= helpers + 1
    assert threading.active_count() <= before + 1
    assert _helper_threads()


def test_a_package_imported_afresh_leaves_no_helper_thread_behind():
    # perfbench imports the package afresh on every set-up; the helper of a
    # dropped copy must end with it
    code = """
import gc, sys, threading, time
import numpy as np
for _ in range(4):
    for name in [k for k in sys.modules if k.split(".")[0] == "hgirr"]:
        del sys.modules[name]
    import hgirr.spectral as spectral
    spectral._SPLIT_TERMS = 0
    spectral._cpus = lambda: 2
    spectral._kernel(np.array([[0, 1, 2], [1, 2, 3]]), 4)(np.ones(4))
del spectral
gc.collect()
deadline = time.monotonic() + 30
helpers = lambda: [t for t in threading.enumerate() if t.name.startswith("hgirr-kernel")]
while len(helpers()) > 1 and time.monotonic() < deadline:
    time.sleep(0.01)
print(len(helpers()))
"""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["1"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fork start method")
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*:DeprecationWarning")
def test_forked_child_runs_a_split_kernel_after_the_parent_started_the_helper(
    submissions,
):
    rng = np.random.default_rng(490)
    n = 60
    edges = random_uniform(n, 301, 3, rng).edge_array
    x = rng.uniform(0.5, 1.5, n)
    want = reference_apply_adjacency_edges(edges, x)
    assert np.array_equal(_kernel(edges, n)(x), want)
    assert len(submissions) == 1 and _helper_threads()
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def child():
        send.send((_kernel(edges, n)(x).tobytes(), len(submissions)))

    proc = ctx.Process(target=child)
    proc.start()
    try:
        assert receive.poll(60), "the forked child's split kernel did not return"
        got, sent = receive.recv()
    finally:
        proc.join(10)
        if proc.is_alive():
            proc.kill()
            proc.join()
    assert proc.exitcode == 0
    assert sent == 2
    assert got == want.tobytes()


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
    opts = SpectralOptions()
    slowest = 0
    for sub in itertools.islice(_seeded_components(), 700):
        want = reference_solve_component(sub.edge_array, sub.n, sub.r, opts)
        assert want[4] and want[2] <= _NEWTON_AFTER
        slowest = max(slowest, want[2])
        _assert_same_solve(_solve_group([sub], opts)[0], want)
    assert slowest > 500


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
    # The star's hub converges long before its tail, so the upper ratio sits
    # at rho and the Newton system is numerically singular there: the first
    # step is rejected and the power iteration finishes as it always did.
    H = star_with_tail(30, 300)
    calls = []
    real_step = hgirr.spectral._newton_step

    def counted_step(*args):
        calls.append(args)
        return real_step(*args)

    monkeypatch.setattr(hgirr.spectral, "_newton_step", counted_step)
    opts = SpectralOptions()
    want = reference_solve_component(H.edge_array, H.n, H.r, opts)
    assert want[4] and want[2] > _NEWTON_AFTER
    _assert_same_solve(_solve_group([H], opts)[0], want)
    assert len(calls) == 1


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
    assert lo <= (2.0 * math.cos(math.pi / (k + 2))) ** (2.0 / r) <= hi
    # every step starts from an accepted iterate: the upper ratio never rose
    assert len(upper) == res.iterations - _NEWTON_AFTER
    assert all(later <= earlier for earlier, later in zip(upper, upper[1:]))


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
    "odd-bipartite r=4": (_odd_bipartite_r4, dense_rho, None),
    # the shift of the whole maximum degree takes 14,921 iterations here
    "star_with_tail(50,200)": (lambda: star_with_tail(50, 200), _cube_rho, 5_000),
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


def test_bracket_pad_is_keyed_on_the_maximum_degree(monkeypatch):
    # The hub of a 200-petal star has degree D = 200 while the shift is a
    # fraction of it; each hub ratio sums D products, so the pad must count
    # D roundings whatever the shift.
    H = star_with_tail(200, 0)
    degree = int(H.degree_array.max())
    sigma = degree * hgirr.spectral._SHIFT
    assert degree == 200 and sigma < degree
    finals = []
    real_power = hgirr.spectral._power_steps

    def recorded_power(*args):
        out = real_power(*args)
        finals.append(out)
        return out

    monkeypatch.setattr(hgirr.spectral, "_power_steps", recorded_power)
    res = spectral_radius(H)
    assert res.converged and len(finals) == 1
    _, lo, hi, _, _ = finals[0]
    pad = hgirr.spectral._gamma(degree + 2 * H.r + 4) * max(1.0, hi)
    assert res.bracket[0] <= lo - sigma - pad
    assert res.bracket[1] >= hi - sigma + pad


@pytest.mark.parametrize(
    "make, phases",
    [
        (lambda: loose_path(3, 250), ["power", "newton"]),
        (lambda: star_with_tail(30, 300), ["power", "newton", "power"]),
    ],
    ids=["newton", "power fallback"],
)
def test_an_open_component_builds_one_kernel_for_every_phase(make, phases, monkeypatch):
    # one kernel for the component's continuation, which every phase takes,
    # and one for the residual of the result
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
    assert len(built) == 2
    assert [phase for phase, _ in handed] == phases
    assert all(apply is built[0] for _, apply in handed)


# ------------------------------------------- components of one rank at once

def _assert_same_result(got, want):
    """Every SpectralResult field equal bit for bit."""
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


@pytest.mark.parametrize("newton_after", [1, 3, 40])
def test_batch_hands_open_components_to_newton_bit_for_bit(newton_after, monkeypatch):
    monkeypatch.setattr(hgirr.spectral, "_NEWTON_AFTER", newton_after)
    for r in (2, 3):
        H = _mixed_union(np.random.default_rng(70 + r), r, 30)
        _assert_same_result(spectral_radius(H), reference_spectral_radius(H))


@pytest.mark.parametrize("budget", [1, 7, 150, 999])
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
