import itertools
import math
import re
import time
from collections import Counter

import numpy as np
import pytest

from helpers import (
    reference_blow_up,
    reference_complete_r_partite,
    reference_direct_product,
    reference_symmetric_difference_size,
    tuple_random_r_partite,
    tuple_random_uniform,
)
from hgirr import (
    HypergraphError,
    blow_up,
    build,
    complete_r_partite,
    degrees,
    direct_product,
    random_r_partite,
    random_uniform,
    single_edge,
    symmetric_difference_size,
    validate_partition,
)
from hgirr.constructions import _colex_subsets


def enumerate_transversals(sizes):
    """Independent oracle: all one-per-class edges over consecutive blocks."""
    blocks, offset = [], 0
    for s in sizes:
        blocks.append(range(offset + 1, offset + s + 1))
        offset += s
    return sorted(tuple(t) for t in itertools.product(*blocks))


def test_single_edge_basics():
    H = single_edge(3)
    assert H.edges == ((1, 2, 3),)
    assert single_edge(2).edges == ((1, 2),)
    assert list(degrees(single_edge(5))) == [1] * 5
    with pytest.raises(HypergraphError):
        single_edge(1)


def test_complete_111_is_single_edge():
    H, P = complete_r_partite([1, 1, 1])
    assert H == single_edge(3)
    assert validate_partition(H, P)


def test_complete_222_matches_enumeration():
    H, P = complete_r_partite([2, 2, 2])
    expected = enumerate_transversals([2, 2, 2])
    assert H.m == 8 == len(expected)
    assert list(H.edges) == expected
    assert list(degrees(H)) == [4] * 6
    assert validate_partition(H, P)


def test_complete_122_matches_enumeration():
    H, P = complete_r_partite([1, 2, 2])
    expected = enumerate_transversals([1, 2, 2])
    assert H.m == 4 == len(expected)
    assert list(H.edges) == expected
    assert list(degrees(H)) == [4, 2, 2, 2, 2]


def test_complete_rejects_empty_class():
    with pytest.raises(HypergraphError, match="nonempty"):
        complete_r_partite([2, 0, 2])


def test_blow_up_identity(two_path):
    assert blow_up(two_path, 1) == two_path
    assert blow_up(two_path, [1] * 5) == two_path


def test_blow_up_single_edge_gives_complete_partite():
    H, _ = complete_r_partite([2, 2, 2])
    assert blow_up(single_edge(3), (2, 2, 2)) == H
    assert blow_up(single_edge(3), 2) == H


def test_blow_up_counts(two_path):
    blown = blow_up(two_path, 2)
    assert blown.n == 10
    assert blown.m == 2**3 * 2


def test_blow_up_rejects_bad_multiplicity(two_path):
    with pytest.raises(HypergraphError, match="positive"):
        blow_up(two_path, 0)
    with pytest.raises(HypergraphError, match="per vertex"):
        blow_up(two_path, [2, 2])


def test_direct_product_single_edges():
    H = direct_product(single_edge(3), single_edge(3))
    assert H.n == 9
    assert H.m == math.factorial(3)


def test_direct_product_counts(two_path):
    H = direct_product(two_path, single_edge(3))
    assert H.n == 15
    assert H.m == math.factorial(3) * two_path.m * 1


def test_direct_product_degree_law(two_path):
    # d(i,j) = (r-1)! * d(i) when the second factor is the single-edge instance
    r = two_path.r
    prod = direct_product(two_path, single_edge(r))
    deg_h = degrees(two_path)
    deg_p = degrees(prod)
    for i in range(1, two_path.n + 1):
        for j in range(1, r + 1):
            flat = (i - 1) * r + j
            assert deg_p[flat - 1] == math.factorial(r - 1) * deg_h[i - 1]


def test_direct_product_rank_mismatch(two_path):
    with pytest.raises(HypergraphError, match="rank mismatch"):
        direct_product(two_path, single_edge(2))


def test_random_uniform_forced_single_edge():
    assert random_uniform(3, 1, 3, seed=7) == single_edge(3)


def test_random_uniform_saturation():
    for n, r in [(5, 3), (4, 2), (7, 7)]:
        H = random_uniform(n, math.comb(n, r), r, seed=0)
        assert H.edges == tuple(itertools.combinations(range(1, n + 1), r))
        assert random_uniform(n, 0, r, seed=0) == build(r, n, [])


def test_random_uniform_deterministic():
    a = random_uniform(8, 12, 3, seed=123)
    b = random_uniform(8, 12, 3, seed=123)
    assert a == b
    c = random_uniform(8, 12, 3, seed=124)
    assert a != c  # overwhelmingly likely for this space


def test_random_uniform_rejects_infeasible():
    with pytest.raises(HypergraphError):
        random_uniform(5, math.comb(5, 3) + 1, 3, seed=0)
    with pytest.raises(HypergraphError):
        random_uniform(5, -1, 3, seed=0)


@pytest.mark.parametrize(
    "n, r", [(2, 2), (5, 2), (6, 3), (7, 4), (8, 7), (9, 9), (10, 5), (100, 99)]
)
def test_colex_unranking_is_a_bijection_onto_the_r_subsets(n, r):
    # at (100, 99), C(a, i) exceeds int64 for some a < 100 and i < 99
    rows = _colex_subsets(np.arange(math.comb(n, r), dtype=np.int64), n, r)
    assert (np.diff(rows, axis=1) > 0).all()
    assert sorted(map(tuple, rows.tolist())) == list(itertools.combinations(range(n), r))
    assert random_uniform(n, math.comb(n, r), r, seed=0).edge_array.tolist() == sorted(
        rows.tolist()
    )


def test_colex_unranking_reaches_the_top_of_int64():
    # C(66, 33) is the largest C(n, n/2) below 2^63
    n, r = 66, 33
    total = math.comb(n, r)
    codes = np.array([0, 1, total // 3, total - 2, total - 1], dtype=np.int64)
    for code, row in zip(codes.tolist(), _colex_subsets(codes, n, r).tolist()):
        assert row == sorted(set(row)) and 0 <= row[0] and row[-1] < n
        assert sum(math.comb(c, i) for i, c in enumerate(row, 1)) == code


def _assert_uniform(draw, draws, outcomes):
    """Every outcome of draw(seed) appears, and the chi-square statistic of
    their counts stays within six standard deviations above its mean."""
    seen = Counter(draw(seed).edges for seed in range(draws))
    assert len(seen) == outcomes
    expected = draws / outcomes
    chi2 = sum((count - expected) ** 2 / expected for count in seen.values())
    assert chi2 < outcomes + 6 * math.sqrt(2 * outcomes)


@pytest.mark.parametrize("m", [1, 2, 9])
def test_random_uniform_outcomes_are_uniform(m):
    # every m-set of the 10 edges of K_5 is equally likely
    _assert_uniform(lambda seed: random_uniform(5, m, 2, seed), 4000, math.comb(10, m))


def test_random_r_partite_outcomes_are_uniform():
    # every pair of the 6 transversals of classes {1, 2} | {3, 4, 5}
    _assert_uniform(lambda seed: random_r_partite([2, 3], 2, seed)[0], 3000, math.comb(6, 2))


def test_random_uniform_beyond_int64_codes():
    # C(100, 50) > 2^63 is more than choice can draw from
    with pytest.raises(HypergraphError, match="exceed the int64 range"):
        random_uniform(100, 5, 50, 1)


def test_random_uniform_draws_two_hundred_thousand_edges_in_time():
    # about 0.2 s on a 2-vCPU VM; one choice call per edge took 4 s
    start = time.perf_counter()
    H = random_uniform(20000, 200000, 3, seed=1)
    assert time.perf_counter() - start < 2.0
    assert H.m == 200000


def test_random_r_partite_saturation():
    complete, _ = complete_r_partite([2, 2, 2])
    H, P = random_r_partite([2, 2, 2], 8, seed=3)
    assert H == complete
    assert validate_partition(H, P)
    assert random_r_partite([2, 2, 2], 0, seed=3)[0] == build(3, 6, [])


def test_random_r_partite_single_edge():
    H, P = random_r_partite([2, 2, 2], 1, seed=11)
    assert H.m == 1
    assert validate_partition(H, P)


def test_random_r_partite_always_valid():
    for seed in range(12):
        H, P = random_r_partite([1, 2, 3], 4, seed=seed)
        assert validate_partition(H, P)
        assert H.m == 4


def test_random_r_partite_deterministic():
    a, _ = random_r_partite([2, 3, 2], 7, seed=42)
    b, _ = random_r_partite([2, 3, 2], 7, seed=42)
    assert a == b


def test_random_r_partite_rejects_infeasible():
    with pytest.raises(HypergraphError):
        random_r_partite([2, 2, 2], 9, seed=0)
    with pytest.raises(HypergraphError, match="exceed the int64 range"):
        random_r_partite([300] * 8, 1, seed=0)


def _small_instance(rng, r, max_n, max_m):
    n = int(rng.integers(r, max_n + 1))
    m = int(rng.integers(0, min(max_m, math.comb(n, r)) + 1))
    return random_uniform(n, m, r, rng)


def _same(got, expected):
    # hypergraphs compare by (r, n, edge_array); partitions by their fields
    assert got == expected
    assert got.edge_array.tobytes() == expected.edge_array.tobytes()


@pytest.mark.parametrize("r", [2, 3, 4])
def test_constructions_match_the_tuple_oracle(r):
    rng = np.random.default_rng(100 + r)
    for _ in range(110):
        H = _small_instance(rng, r, 7, 6)
        if rng.random() < 0.5:
            k = int(rng.integers(1, 4))
        else:
            k = rng.integers(1, 4, size=H.n).tolist()
        _same(blow_up(H, k), reference_blow_up(H, k))

        H2 = _small_instance(rng, r, 6, 4)
        _same(direct_product(H, H2), reference_direct_product(H, H2))

        other = _small_instance(rng, r, 8, 8)
        assert symmetric_difference_size(H, other) == reference_symmetric_difference_size(
            H, other
        )
        assert symmetric_difference_size(H, H) == 0

        sizes = rng.integers(1, 4, size=r).tolist()
        got, got_p = complete_r_partite(sizes)
        want, want_p = reference_complete_r_partite(sizes)
        _same(got, want)
        assert got_p == want_p

        total = math.prod(sizes)
        m = int(rng.integers(0, total + 1))
        seed = int(rng.integers(0, 2**32))
        got, got_p = random_r_partite(sizes, m, seed)
        want, want_p = tuple_random_r_partite(sizes, m, seed)
        _same(got, want)
        assert got_p == want_p

        n = int(rng.integers(r, 9))
        m = int(rng.integers(0, math.comb(n, r) + 1))
        _same(random_uniform(n, m, r, seed), tuple_random_uniform(n, m, r, seed))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda H: blow_up(H, [1.7, 2, 2, 2, 2]), "multiplicity 1.7 is not an integer"),
        (lambda H: blow_up(H, 2.0), "multiplicity 2.0 is not an integer"),
        (lambda H: blow_up(H, "22222"), "multiplicity '22222' is not an integer"),
        (lambda H: blow_up(H, [2, 2, "2", 2, 2]), "multiplicity '2' is not an integer"),
        (lambda H: complete_r_partite((2.9, 3)), "class size 2.9 is not an integer"),
        (lambda H: random_r_partite((2.5, 3, 3), 4, 1), "class size 2.5 is not an integer"),
        (lambda H: random_r_partite((2, 2, 2), 2.5, 1), "parameter 2.5 is not an integer"),
        (lambda H: random_uniform(6, 2.5, 3, 1), "parameter 2.5 is not an integer"),
        (lambda H: random_uniform(6.0, 2, 3, 1), "parameter 6.0 is not an integer"),
    ],
)
def test_constructions_refuse_non_integer_sizes(two_path, call, message):
    with pytest.raises(HypergraphError, match=re.escape(message)):
        call(two_path)


def test_constructions_accept_numpy_integer_sizes(two_path):
    assert blow_up(two_path, np.int64(2)) == blow_up(two_path, 2)
    assert blow_up(two_path, np.full(5, 2)) == blow_up(two_path, 2)
    assert complete_r_partite(np.array([2, 3])) == complete_r_partite([2, 3])


def test_constructions_leave_the_tuple_view_unmade():
    # every construction works on edge arrays: none materializes H.edges
    H = random_uniform(9, 12, 3, seed=2)
    other = random_uniform(7, 10, 3, seed=3)
    made = [
        blow_up(H, 2),
        blow_up(H, list(range(1, 10))),
        direct_product(H, other),
        complete_r_partite([2, 3, 1])[0],
        random_r_partite([2, 3, 1], 4, seed=5)[0],
    ]
    assert symmetric_difference_size(H, other) > 0
    for G in [H, other, *made]:
        assert "edges" not in G.__dict__
