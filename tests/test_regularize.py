import hashlib
import math

import numpy as np
import pytest

from helpers import reference_random_r_partite, reference_random_uniform, reference_rewire
from hgirr import (
    Partition,
    build,
    complete_r_partite,
    degrees,
    random_r_partite,
    random_uniform,
    regularize,
    regularize_partitewise,
    s_measure,
    s_r_measure,
    symmetric_difference_size,
    validate_partition,
)
from hgirr.irregularity import _plan


def test_near_regular_is_identity(two_path):
    out, trace = regularize(two_path)
    assert out == two_path
    assert len(trace) == 0


def test_regular_is_identity():
    H, _ = complete_r_partite([2, 2, 2])
    out, trace = regularize(H)
    assert out == H
    assert len(trace) == 0


def test_star_one_swap(star3):
    out, trace = regularize(star3)
    assert len(trace) == 1
    assert sorted(degrees(out).tolist(), reverse=True) == [2, 2, 1, 1, 1, 1, 1]
    assert symmetric_difference_size(star3, out) == 2
    assert s_measure(star3) == 24 / 7
    assert 2 <= s_measure(star3)


def test_trace_replay_reproduces_output(star3):
    out, trace = regularize(star3)
    assert trace.apply(star3) == out


def test_deterministic_tie_breaks(star3):
    # lowest-id min-degree vertex receives, lowest-id max-degree donates,
    # first admissible edge in canonical order moves
    _, trace = regularize(star3)
    assert trace.swaps == (((1, 4, 5), (2, 4, 5)),)


def test_multi_swap_trace_is_pinned():
    _, trace = regularize(reference_random_uniform(9, 10, 3, seed=4))
    assert trace.swaps == (
        ((2, 4, 6), (4, 5, 6)),
        ((1, 3, 8), (1, 3, 9)),
    )


def test_partitewise_trace_is_pinned():
    # classes {1,2} | {3,4,5} | {6,7,8,9}; the swaps touch all three
    _, trace = regularize_partitewise(*reference_random_r_partite((2, 3, 4), 12, seed=3))
    assert trace.swaps == (
        ((1, 3, 6), (2, 3, 6)),
        ((1, 3, 7), (1, 4, 7)),
        ((1, 5, 6), (1, 5, 8)),
        ((1, 5, 7), (1, 5, 9)),
    )


def test_rewire_matches_sort_and_scan_reference():
    # small vertex counts force degree ties among donors and receivers
    rng = np.random.default_rng(53)
    swaps = 0
    for _ in range(120):
        r = int(rng.choice([2, 3, 4]))
        n = int(rng.integers(r, 25))
        m = int(rng.integers(0, min(math.comb(n, r), 120) + 1))
        H = random_uniform(n, m, r, rng)
        got = regularize(H)
        assert got == reference_rewire(H, (tuple(range(1, n + 1)),))
        swaps += len(got[1])
    assert swaps > 500


def test_partitewise_rewire_matches_sort_and_scan_reference():
    # singleton classes are skipped; the others are rewired in class order
    rng = np.random.default_rng(54)
    size_pool = [(1, 3, 4), (2, 2, 2), (3, 5), (4, 2, 3, 2), (6, 1, 5), (5, 5, 5)]
    swaps = 0
    for i in range(90):
        sizes = size_pool[i % len(size_pool)]
        m = int(rng.integers(0, min(math.prod(sizes), 150) + 1))
        H, P = random_r_partite(sizes, m, rng)
        got = regularize_partitewise(H, P)
        assert got == reference_rewire(H, P.classes)
        swaps += len(got[1])
    assert swaps > 200


def test_large_trace_is_pinned():
    # recorded with the sort-and-scan rewiring, which took 55 s on a 2-vCPU VM
    _, trace = regularize(reference_random_uniform(2000, 20000, 3, seed=1))
    assert len(trace) == 4392
    digest = hashlib.sha256(repr(trace.swaps).encode()).hexdigest()
    assert digest == "ff16c7679371eb7eb157406352f487352bbc01d8f980f1d34821d4a19b0f23ea"


def test_large_partitewise_trace_is_pinned():
    # the size of perfbench's analyze-partite instance; recorded with the
    # rewiring that kept sorted degree buckets per class
    out, trace = regularize_partitewise(*random_r_partite((150, 150, 150), 6000, seed=1))
    assert len(trace) == 1141
    digest = hashlib.sha256(repr(trace.swaps).encode()).hexdigest()
    assert digest == "5309fdc175e3825fb0ee0031d83078edcfe9fbdf0a5dfdc30913ffad03eab911"
    assert out.edge_array.dtype == np.int64 and out.edge_array.flags.c_contiguous
    digest = hashlib.sha256(out.edge_array.tobytes()).hexdigest()
    assert digest == "9929b89177d96e5c65711f2fb3999e8020f97757f474de32dd1e80a854a9495e"


def _traced_pairs(trace):
    """The (donor, receiver) pair of each swap of a trace."""
    return [
        ((set(removed) - set(inserted)).pop(), (set(inserted) - set(removed)).pop())
        for removed, inserted in trace
    ]


def test_rewire_plan_depends_only_on_degrees():
    rng = np.random.default_rng(55)
    cases = []
    for _ in range(60):
        r = int(rng.choice([2, 3, 4]))
        n = int(rng.integers(r, 25))
        m = int(rng.integers(0, min(math.comb(n, r), 120) + 1))
        cases.append((random_uniform(n, m, r, rng), (tuple(range(1, n + 1)),)))
    for sizes in [(1, 3, 4), (1, 1, 6), (2, 5, 3), (4, 4, 4), (6, 1, 5)] * 4:
        m = int(rng.integers(0, min(math.prod(sizes), 100) + 1))
        H, P = random_r_partite(sizes, m, rng)
        cases.append((H, P.classes))
    # degrees (3, 1, 2, 2) average exactly a = 2: the donor at a + 1 meets
    # the receiver at a - 1, and one swap ends the group
    H = build(2, 4, [[1, 2], [1, 3], [1, 4], [3, 4]])
    cases.append((H, (tuple(range(1, 5)),)))
    # class {1, 2} needs a swap, class {3, 4, 5} has degrees (2, 1, 1) and
    # needs none, and the singleton class {6} has degree 4
    H = build(3, 6, [[1, 3, 6], [1, 4, 6], [1, 5, 6], [2, 3, 6]])
    cases.append((H, Partition((1, 1, 2, 2, 2, 3), 3).classes))
    # an empty class, on an edgeless instance
    cases.append((build(3, 3, []), Partition((1, 1, 2), 3).classes))
    swaps = 0
    for H, groups in cases:
        deg = H.degree_array.tolist()
        planned = [pair for members in groups for pair in _plan(members, deg)]
        assert planned == _traced_pairs(reference_rewire(H, groups)[1])
        swaps += len(planned)
    assert swaps > 500
    assert _plan((1, 2, 3, 4), [3, 1, 2, 2]) == [(1, 2)]
    deg = [3, 1, 2, 1, 1, 4]
    assert [_plan(members, deg) for members in [(1, 2), (3, 4, 5), (6,), ()]] == [
        [(1, 2)],
        [],
        [],
        [],
    ]


def _phase1_decrements_check(H, trace):
    """Every swap between a vertex below and a vertex above the target band
    must shrink the scaled deviation sum(|n*d_i - r*m|) by exactly 2n."""
    n, m, r = H.n, H.m, H.r
    target = (r * m) // n
    deg = H.degree_array.tolist()

    def scaled_s():
        return sum(abs(n * d - r * m) for d in deg)

    for removed, inserted in trace:
        donor = (set(removed) - set(inserted)).pop()
        receiver = (set(inserted) - set(removed)).pop()
        before = scaled_s()
        phase1 = deg[receiver - 1] <= target - 1 and deg[donor - 1] >= target + 2
        deg[donor - 1] -= 1
        deg[receiver - 1] += 1
        if phase1:
            assert before - scaled_s() == 2 * n
        else:
            assert before - scaled_s() >= 0


def test_contract_on_seeded_instances():
    rng = np.random.default_rng(51)
    for _ in range(50):
        r = int(rng.choice([2, 3, 4]))
        n = int(rng.integers(r, 10))
        m = int(rng.integers(0, math.comb(n, r) + 1))
        H = random_uniform(n, m, r, rng)
        out, trace = regularize(H)
        deg = degrees(out)
        assert out.n == H.n and out.m == H.m and out.r == H.r
        assert int(deg.max() - deg.min()) <= 1
        assert symmetric_difference_size(H, out) <= s_measure(H) + 1e-9
        assert s_measure(out) <= s_measure(H) + 1e-9
        assert trace.apply(H) == out
        _phase1_decrements_check(H, trace)


def test_partitewise_complete_is_identity():
    H, P = complete_r_partite([2, 3, 2])
    out, trace = regularize_partitewise(H, P)
    assert out == H
    assert len(trace) == 0


def test_partitewise_two_edges_through_one_vertex():
    # both transversals use class-1 vertex 1; one swap moves an edge to vertex 2
    H = build(3, 6, [[1, 3, 5], [1, 4, 6]])
    _, P = complete_r_partite([2, 2, 2])
    out, trace = regularize_partitewise(H, P)
    assert len(trace) == 1
    assert validate_partition(out, P)
    deg = degrees(out)
    assert int(deg[0]) == 1 and int(deg[1]) == 1


def test_partitewise_contract_on_seeded_instances():
    rng = np.random.default_rng(52)
    size_pool = [(1, 2, 2), (2, 2, 2), (1, 2, 3), (3, 3), (2, 4)]
    for i in range(40):
        sizes = size_pool[i % len(size_pool)]
        cap = math.prod(sizes)
        m = int(rng.integers(0, cap + 1))
        H, P = random_r_partite(sizes, m, rng)
        out, trace = regularize_partitewise(H, P)
        assert out.m == H.m
        assert validate_partition(out, P)
        deg = degrees(out)
        for members in P.classes:
            if not members:
                continue
            class_deg = [int(deg[v - 1]) for v in members]
            assert max(class_deg) - min(class_deg) <= 1
        assert symmetric_difference_size(H, out) <= s_r_measure(H, P) + 1e-9
        assert trace.apply(H) == out


def test_partitewise_rejects_invalid_partition(two_path):
    from hgirr import HypergraphError, Partition

    with pytest.raises(HypergraphError, match="invalid partition"):
        regularize_partitewise(two_path, Partition((1, 1, 2, 2, 3), 3))
