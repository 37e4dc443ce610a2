import math
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import reference_components
from hgirr import core
from hgirr import (
    EdgeTrace,
    HypergraphError,
    Partition,
    build,
    components,
    degrees,
    first_partition_violation,
    is_connected,
    is_regular,
    relabel,
    symmetric_difference_size,
    union_edges,
    validate_partition,
)
from hgirr.constructions import (
    complete_r_partite,
    random_r_partite,
    random_uniform,
    single_edge,
)


def test_build_single_edge():
    H = build(3, 3, [[1, 2, 3]])
    assert (H.r, H.n, H.m) == (3, 3, 1)
    assert H.edges == ((1, 2, 3),)


def test_build_two_path(two_path):
    assert two_path.m == 2
    assert list(degrees(two_path)) == [2, 1, 1, 1, 1]


def test_build_canonicalizes():
    H = build(3, 5, [[5, 4, 1], [3, 2, 1]])
    assert H.edges == ((1, 2, 3), (1, 4, 5))
    assert H == build(3, 5, [[1, 2, 3], [1, 4, 5]])


def test_build_rejects_repeated_vertex():
    with pytest.raises(HypergraphError, match="repeated vertex"):
        build(3, 3, [[1, 2, 2]])


def test_build_rejects_wrong_cardinality():
    with pytest.raises(HypergraphError, match="expected 3"):
        build(3, 4, [[1, 2]])


def test_build_rejects_out_of_range():
    with pytest.raises(HypergraphError, match="out of range"):
        build(3, 3, [[1, 2, 4]])
    with pytest.raises(HypergraphError, match="out of range"):
        build(3, 3, [[0, 1, 2]])


def test_build_duplicate_edge_strict_and_lenient():
    with pytest.raises(HypergraphError, match="duplicate edge"):
        build(3, 4, [[1, 2, 3], [3, 2, 1]])
    # the union of two edge sets is the one place repeated edges collapse
    H = union_edges(build(3, 4, [[1, 2, 3]]), build(3, 4, [[3, 2, 1]]))
    assert H.m == 1


def test_build_rejects_degenerate_sizes():
    with pytest.raises(HypergraphError):
        build(1, 5, [])
    with pytest.raises(HypergraphError):
        build(3, 2, [])


def test_degree_sum_equals_rm(two_path, star3):
    for H in (two_path, star3, single_edge(4)):
        assert int(degrees(H).sum()) == H.r * H.m


def test_degrees_regular_constant():
    H, _ = complete_r_partite([2, 2, 2])
    assert set(degrees(H).tolist()) == {4}
    assert is_regular(H)


def test_components_connected_identity(two_path):
    comps = components(two_path)
    assert len(comps) == 1
    verts, sub = comps[0]
    assert verts == (1, 2, 3, 4, 5)
    assert sub == two_path
    assert is_connected(two_path)


def test_components_two_disjoint_edges():
    H = build(3, 6, [[1, 2, 3], [4, 5, 6]])
    comps = components(H)
    assert len(comps) == 2
    for verts, sub in comps:
        assert sub == single_edge(3)
    assert not is_connected(H)


def test_components_isolated_vertex(two_path):
    H = build(3, 6, [[1, 2, 3], [1, 4, 5]])
    comps = components(H)
    assert len(comps) == 2
    assert comps[0][1] == two_path
    verts, singleton = comps[1]
    assert verts == (6,)
    assert singleton.n == 1 and singleton.m == 0


def test_components_partition_vertices_and_edges():
    H = build(3, 9, [[1, 2, 3], [3, 4, 5], [6, 7, 8]])
    comps = components(H)
    all_verts = sorted(v for verts, _ in comps for v in verts)
    assert all_verts == list(range(1, 10))
    assert sum(sub.m for _, sub in comps) == H.m
    for _, sub in comps:
        assert len(components(sub)) == 1


def test_validate_partition_examples(two_path, two_path_partition):
    assert validate_partition(two_path, two_path_partition)
    # two class-1 vertices inside the single edge
    H = build(3, 3, [[1, 2, 3]])
    P = Partition((1, 1, 2), 3)
    assert not validate_partition(H, P)


def test_validate_partition_complete_by_construction():
    H, P = complete_r_partite([2, 3, 2])
    assert validate_partition(H, P)


def test_first_partition_violation_is_first_in_canonical_order():
    rng = np.random.default_rng(7)
    for _ in range(60):
        r = int(rng.integers(2, 5))
        n = int(rng.integers(r, 12))
        H = random_uniform(n, int(rng.integers(0, math.comb(n, r) + 1)), r, rng)
        P = Partition(tuple(int(c) for c in rng.integers(1, r + 1, n)), r)
        expected = next(
            (e for e in H.edges if len({P.class_of[v - 1] for v in e}) != r), None
        )
        assert first_partition_violation(H, P) == expected


def test_validate_partition_requires_matching_shape(two_path):
    with pytest.raises(HypergraphError):
        validate_partition(two_path, Partition((1, 2, 3), 3))
    with pytest.raises(HypergraphError):
        validate_partition(two_path, Partition((1, 2, 1, 2, 1), 2))


def test_partition_class_accessors(two_path_partition):
    assert two_path_partition.class_sizes == (1, 2, 2)
    assert two_path_partition.classes == ((1,), (2, 4), (3, 5))


def test_partition_keeps_one_read_only_class_array(two_path_partition):
    classes = two_path_partition._class_array
    assert classes is two_path_partition._class_array
    assert classes.dtype == np.int64 and not classes.flags.writeable
    assert classes.tolist() == list(two_path_partition.class_of)


def test_partition_rejects_bad_labels():
    with pytest.raises(HypergraphError):
        Partition((1, 4), 3)
    with pytest.raises(HypergraphError):
        Partition((0, 1), 2)
    with pytest.raises(HypergraphError, match="need at least one class"):
        Partition((), 0)
    with pytest.raises(HypergraphError) as info:
        Partition((1.7, 2, 3), 3)
    assert str(info.value) == "vertex 1 assigned to class 1.7, not an integer"


def test_union_idempotent(two_path):
    assert union_edges(two_path, two_path) == two_path


def test_union_disjoint_edges():
    H1 = build(3, 6, [[1, 2, 3]])
    H2 = build(3, 6, [[4, 5, 6]])
    assert union_edges(H1, H2).m == 2


def test_union_absorbs_duplicates():
    H1 = build(3, 4, [[1, 2, 3]])
    H2 = build(3, 4, [[1, 2, 3], [2, 3, 4]])
    assert union_edges(H1, H2).m == 2


def test_union_of_empty_and_unequal_operands(two_path):
    empty3, empty6 = build(3, 3, []), build(3, 6, [])
    union = union_edges(empty3, empty6)
    assert (union.n, union.m, union.edge_array.shape) == (6, 0, (0, 3))
    assert union.edge_array.dtype == np.int64
    assert union_edges(two_path, empty6) == build(3, 6, two_path.edges)
    assert union_edges(empty3, two_path) == two_path
    wider = build(3, 8, [[6, 7, 8], [1, 2, 3], [2, 3, 4]])
    assert union_edges(two_path, wider) == union_edges(wider, two_path) == build(
        3, 8, [[1, 2, 3], [1, 4, 5], [2, 3, 4], [6, 7, 8]]
    )


def test_duplicate_in_a_large_input_names_its_second_occurrence():
    # the key sort is not stable: equal rows may leave it out of input order
    rng = np.random.default_rng(17)
    H = random_uniform(300, 60_000, 3, rng)
    rows = rng.permuted(H.edge_array[rng.permutation(H.m)] + 1, axis=1)
    edge, rest = rows[0], rows[1:]
    for at in (7_000, 31_000, 52_000):
        rest = np.insert(rest, at, rng.permutation(edge), axis=0)
    message = f"duplicate edge {sorted(edge.tolist())} (edge #31001)"
    with pytest.raises(HypergraphError, match=re.escape(message)):
        build(3, 300, rest)
    assert build(3, 300, rows) == H
    union = union_edges(build(3, 300, rows[:40_000]), build(3, 300, rows[25_000:]))
    assert union == H
    assert set(union.edges) == set(H.edges)


def test_union_rank_mismatch(two_path):
    with pytest.raises(HypergraphError, match="rank mismatch"):
        union_edges(two_path, single_edge(2))


def test_symmetric_difference(two_path):
    assert symmetric_difference_size(two_path, two_path) == 0
    swapped = build(3, 5, [[1, 2, 3], [2, 4, 5]])
    assert symmetric_difference_size(two_path, swapped) == 2
    disjoint = build(3, 5, [[2, 3, 4]])
    assert symmetric_difference_size(two_path, disjoint) == 3
    with pytest.raises(HypergraphError, match="rank mismatch"):
        symmetric_difference_size(two_path, single_edge(2))


def test_relabel_roundtrip(two_path):
    perm = [3, 1, 4, 5, 2]
    moved = relabel(two_path, perm)
    assert moved != two_path
    inverse = [0] * 5
    for old, new in enumerate(perm, 1):
        inverse[new - 1] = old
    assert relabel(moved, inverse) == two_path
    with pytest.raises(HypergraphError):
        relabel(two_path, [1, 1, 2, 3, 4])


def test_edge_trace_apply_validates(two_path):
    trace = EdgeTrace((((1, 4, 5), (2, 4, 5)),))
    moved = trace.apply(two_path)
    assert set(moved.edges) == {(1, 2, 3), (2, 4, 5)}
    with pytest.raises(HypergraphError, match="missing edge"):
        EdgeTrace((((2, 4, 5), (3, 4, 5)),)).apply(two_path)
    with pytest.raises(HypergraphError, match="existing edge"):
        EdgeTrace((((1, 2, 3), (1, 4, 5)),)).apply(two_path)
    for inserted in [
        (3, 2, 9), (2, 4, 9), (2, 2, 4), (2, 4), (2, 4, 5, 6), (5, 4, 1), (2, 1, 3), [2, 4, 5],
        (1.5, 2, 4), (2.0, 4, 5),
    ]:
        # out of range, repeated vertex, wrong size, unsorted, unsorted
        # duplicate, not a tuple, ids that are not integers
        with pytest.raises(HypergraphError, match=re.escape(f"edge {list(inserted)}")):
            EdgeTrace((((1, 4, 5), inserted),)).apply(two_path)
    with pytest.raises(HypergraphError, match=re.escape("edge [1, 4, 5] is not a tuple")):
        EdgeTrace((([1, 4, 5], (2, 4, 5)),)).apply(two_path)
    for removed in [(1.0, 4, 5), (1, 4, 5.0), (1, np.float64(4), 5), ("1", 4, 5)]:
        # equal to the present edge (1, 4, 5) as far as a set can tell, or not
        # an integer at all: refused like the same ids on the inserted side
        with pytest.raises(
            HypergraphError, match=re.escape(f"removes edge {list(removed)}: vertex ids")
        ):
            EdgeTrace(((removed, (2, 4, 5)),)).apply(two_path)
    assert EdgeTrace((((1, np.int64(4), 5), (2, 4, 5)),)).apply(two_path) == moved


def test_hashable_and_immutable(two_path):
    assert hash(two_path) == hash(build(3, 5, [[1, 4, 5], [1, 2, 3]]))
    with pytest.raises(AttributeError):
        two_path.n = 7
    rng = np.random.default_rng(5)
    pieces = components(build(3, 8, [[1, 2, 3], [4, 5, 6], [6, 7, 8]]))
    for H in [two_path, random_uniform(12, 30, 3, rng)] + [sub for _, sub in pieces]:
        with pytest.raises(ValueError, match="read-only"):
            H.edge_array[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            H.degree_array[0] = 1


def _blocky(rng):
    """Edges drawn inside random vertex blocks: several components, often
    isolated vertices, under a random labelling."""
    r = int(rng.integers(2, 5))
    n = int(rng.integers(r, 50))
    block_of = rng.integers(0, int(rng.integers(1, 7)), n)
    edges = []
    for _ in range(int(rng.integers(0, n + 1))):
        members = np.flatnonzero(block_of == block_of[rng.integers(0, n)])
        if members.size >= r:
            edges.append(rng.choice(members, r, replace=False) + 1)
    return build(r, n, sorted({tuple(sorted(e.tolist())) for e in edges}))


def _disjoint_union(rng):
    """Two or three random pieces side by side, plus isolated vertices,
    relabeled at random."""
    r = int(rng.integers(2, 4))
    edges, offset = [], 0
    for _ in range(int(rng.integers(2, 4))):
        size = int(rng.integers(r, 9))
        piece = random_uniform(size, int(rng.integers(1, math.comb(size, r) + 1)), r, rng)
        edges.extend((piece.edge_array + 1 + offset).tolist())
        offset += size
    n = offset + int(rng.integers(0, 4))
    perm = rng.permutation(n) + 1
    return build(r, n, [perm[np.asarray(e) - 1] for e in edges])


def _large_disjoint_union(rng):
    """Five random 3-uniform pieces of 2500 edges each and 100 isolated
    vertices, relabeled at random."""
    pieces = [random_uniform(500, 2500, 3, rng).edge_array + 500 * i for i in range(5)]
    perm = rng.permutation(2600) + 1
    return build(3, 2600, perm[np.concatenate(pieces)])


def _oracle_inputs(rng):
    for i in range(200):
        if i % 3 == 0:
            n = int(rng.integers(3, 30))
            yield random_uniform(n, int(rng.integers(0, min(n, math.comb(n, 3) + 1))), 3, rng)
        elif i % 3 == 1:
            yield _blocky(rng)
        else:
            yield _disjoint_union(rng)
    # sparse inputs of every other rank, with many components, and a large
    # disconnected one, so that the column folds run on long columns
    for r, n, m in [(2, 3000, 1400), (2, 400, 300), (4, 2000, 450), (5, 2000, 350)]:
        yield random_uniform(n, m, r, rng)
    yield _large_disjoint_union(rng)


def test_components_match_bfs_oracle():
    for H in _oracle_inputs(np.random.default_rng(2024)):
        got = components(H)
        assert got == reference_components(H)
        assert is_connected(H) == (len(got) == 1)


def test_components_of_a_long_relabeled_path_are_near_linear():
    k = 100_000
    n = 2 * k + 1
    rng = np.random.default_rng(5)
    base = np.arange(1, 2 * k, 2)
    relabel_to = rng.permutation(n) + 1
    H = build(3, n, relabel_to[np.stack([base, base + 1, base + 2], axis=1) - 1])
    start = time.perf_counter()
    comps = components(H)
    elapsed = time.perf_counter() - start
    assert len(comps) == 1 and comps[0][1] is H
    assert elapsed < 5.0


BUILD_ERRORS = [
    ([[1, 2, 3], [1, 2]], "edge #2 [1, 2] has 2 vertices, expected 3"),
    ([[1, 2, 3], [1, 2, 3, 4]], "edge #2 [1, 2, 3, 4] has 4 vertices, expected 3"),
    ([[1, 2, 3], [4, 4, 5]], "edge #2 [4, 4, 5] has a repeated vertex"),
    ([[1, 2, 3], [4, 6, 5]], "edge #2 [4, 6, 5]: vertex id 6 out of range [1, 5]"),
    ([[0, 2, 3]], "edge #1 [0, 2, 3]: vertex id 0 out of range [1, 5]"),
    ([[1, 2, 3], [2, 4, 5], [3, 1, 2]], "duplicate edge [1, 2, 3] (edge #3)"),
    # the earlier input position wins, whatever the kind of error
    ([[1, 2, 3], [2, 2, 9], [3, 1, 2]], "edge #2 [2, 2, 9] has a repeated vertex"),
    ([[1, 2, 3], [3, 2, 1], [2, 2, 9]], "duplicate edge [1, 2, 3] (edge #2)"),
    # ragged input
    ([[1, 2, 3], [3, 3, 1], [1, 2]], "edge #2 [3, 3, 1] has a repeated vertex"),
    ([[1, 2, 3], [1, 2], [3, 3, 1]], "edge #2 [1, 2] has 2 vertices, expected 3"),
    ([[1, 2, 3, 4], [1, 2, 3, 5]], "edge #1 [1, 2, 3, 4] has 4 vertices, expected 3"),
    (
        [[1, 2, 3], [1, 2, 10**30]],
        "edge #2 [1, 2, 1000000000000000000000000000000]: "
        "vertex id 1000000000000000000000000000000 out of range [1, 5]",
    ),
    ((e for e in [[1, 2, 3], [3, 4, 5], [5, 4, 3]]), "duplicate edge [3, 4, 5] (edge #3)"),
    (np.array([[1, 2, 3], [3, 4, 5], [5, 4, 6]]), "edge #3 [5, 4, 6]: vertex id 6 out of range [1, 5]"),
    (np.array([[1, 2, 3], [3, 4, 5], [5, 4, 3]]), "duplicate edge [3, 4, 5] (edge #3)"),
    # ids that are not integers are rejected, not truncated
    ([[1, 2, 3], [1.5, 2, 4]], "edge #2 [1.5, 2, 4]: vertex id 1.5 is not an integer"),
    # in a float array every id is a float, whole or not
    (np.array([[1.5, 2, 3], [2, 3, 4]]), "edge #1 [1.5, 2.0, 3.0]: vertex id 1.5 is not an integer"),
    (np.array([[1, 2, 3], [3, 4, 5]], dtype=float), "edge #1 [1.0, 2.0, 3.0]: vertex id 1.0 is not an integer"),
    ([[1, 2, 3], [3, 3, 1], [1.5, 2, 4]], "edge #2 [3, 3, 1] has a repeated vertex"),
    ([[1, 2, 3], [2.0, 3, 4], [3, 2, 1]], "edge #2 [2.0, 3, 4]: vertex id 2.0 is not an integer"),
    # numpy integer ids print as Python ints
    ([[np.int64(1), np.int64(2)]], "edge #1 [1, 2] has 2 vertices, expected 3"),
    # edge #1 fails before the non-iterable edge #2 is reached
    ([[1, 2, 2], 7], "edge #1 [1, 2, 2] has a repeated vertex"),
    # range checked before the shift to 0-based ids, which would wrap these
    (
        np.array([[-(2**63), 2, 3]]),
        "edge #1 [-9223372036854775808, 2, 3]: vertex id -9223372036854775808 out of range [1, 5]",
    ),
    (
        np.array([[1, 2, 2**64 - 1]], dtype=np.uint64),
        "edge #1 [1, 2, 18446744073709551615]: vertex id 18446744073709551615 out of range [1, 5]",
    ),
]


@pytest.mark.parametrize("edges, message", BUILD_ERRORS)
def test_build_error_messages_are_pinned(edges, message):
    with pytest.raises(HypergraphError) as info:
        build(3, 5, edges)
    assert str(info.value) == message


def test_build_raises_the_type_error_of_an_edge_that_is_not_iterable():
    with pytest.raises(TypeError):
        build(3, 5, [[1, 2, 3], 7])


@pytest.mark.parametrize("dtype", [np.int32, np.uint8])
def test_build_returns_int64_edges_for_any_integer_array(dtype):
    rows = np.array([[3, 2, 1], [1, 4, 5], [5, 2, 4]])
    H = build(3, 5, rows.astype(dtype))
    assert H.edge_array.dtype == np.int64
    assert H == build(3, 5, rows)


@pytest.mark.parametrize(
    "rows, checks",
    [([[1, 2, 3], [2, 4, 5]], 1), ([[3, 2, 1], [2, 4, 5]], 2)],
    ids=["increasing", "sorted within rows"],
)
def test_build_checks_rows_again_only_after_sorting_them(rows, checks, monkeypatch):
    seen = []
    real = core._increasing_in_range

    def counted(rows, n):
        seen.append(n)
        return real(rows, n)

    monkeypatch.setattr(core, "_increasing_in_range", counted)
    assert build(3, 5, np.array(rows)).edges == ((1, 2, 3), (2, 4, 5))
    assert len(seen) == checks


@pytest.mark.parametrize("n, r", [(30, 4), (100, 10)])
def test_build_from_array_and_from_tuples_agree(n, r):
    # 100**10 exceeds int64, so the second case sorts rows column by column
    rng = np.random.default_rng(11)
    rows = np.array([rng.choice(n, r, replace=False) + 1 for _ in range(200)])
    # keep the first occurrence of each edge, in input order
    _, first = np.unique(np.sort(rows, axis=1), axis=0, return_index=True)
    rows = rows[np.sort(first)]
    H = build(r, n, rows)
    assert H.edges == tuple(sorted({tuple(sorted(row)) for row in rows.tolist()}))
    again = build(r, n, list(H.edges))
    assert again == H and again.edges == H.edges and hash(again) == hash(H)
    assert np.array_equal(again.edge_array, H.edge_array)


@pytest.mark.parametrize(
    "n, edges",
    [(2**64, [[1, 2, 3]]), (2**64, [[1, 2, 2**63]])],
)
def test_build_refuses_a_vertex_count_beyond_int64(n, edges):
    # ids are int64 array entries, so no array could index such a vertex set
    with pytest.raises(HypergraphError) as info:
        build(3, n, edges)
    assert str(info.value) == (
        "need at most 9223372036854775807 vertices, got n=18446744073709551616"
    )


def _random_rows(rng, r, n):
    """Up to 40 distinct edges on 1..n as rows of ids in random order
    between and within rows, or with each row increasing; some cases get a
    repeated edge, a repeated vertex or an id out of range."""
    k = int(rng.integers(0, min(40, math.comb(n, r)) + 1))
    rows = rng.permuted(random_uniform(n, k, r, rng).edge_array[rng.permutation(k)] + 1, axis=1)
    if k and rng.random() < 0.3:
        row = rng.permutation(rows[rng.integers(k)])
        rows = np.insert(rows, rng.integers(k + 1), row, axis=0)
    if k and rng.random() < 0.2:
        i, a, b = rng.integers(k), *rng.choice(r, 2, replace=False)
        rows[i, a] = rows[i, b]
    if k and rng.random() < 0.2:
        rows[rng.integers(k), rng.integers(r)] = rng.choice([0, n + 1, -(2**63), 2**62])
    return np.sort(rows, axis=1) if rng.random() < 0.5 else rows


def _build_outcome(r, n, rows):
    try:
        H = build(r, n, rows)
    except HypergraphError as error:
        return str(error)
    assert H.edge_array.dtype == np.int64 and H.edge_array.flags.c_contiguous
    return list(H.edges)


def test_build_sorts_codes_as_lexsort_and_the_scan_do(monkeypatch):
    # an n**r beyond a lowered int64 bound sends build to np.lexsort
    rng = np.random.default_rng(2020)
    for _ in range(400):
        r = int(rng.integers(2, 5))
        n = int(rng.integers(r, 13))
        rows = _random_rows(rng, r, n)
        try:
            core._scan(rows, r, n)
        except HypergraphError as error:
            expected = str(error)
        else:
            expected = sorted({tuple(sorted(row)) for row in rows.tolist()})
        assert _build_outcome(r, n, rows) == expected
        with monkeypatch.context() as patch:
            patch.setattr(core, "_INT64", SimpleNamespace(max=n))
            assert _build_outcome(r, n, rows) == expected


def test_union_edges_is_the_set_union(monkeypatch):
    rng = np.random.default_rng(2021)
    for _ in range(200):
        r = int(rng.integers(2, 5))
        n1, n2 = (int(v) for v in rng.integers(r, 10, 2))
        H1 = random_uniform(n1, int(rng.integers(0, math.comb(n1, r) + 1)), r, rng)
        H2 = random_uniform(n2, int(rng.integers(0, math.comb(n2, r) + 1)), r, rng)
        expected = sorted(set(H1.edges) | set(H2.edges))
        for bound in (core._INT64, SimpleNamespace(max=max(n1, n2))):
            with monkeypatch.context() as patch:
                patch.setattr(core, "_INT64", bound)
                union = union_edges(H1, H2)
            assert (union.r, union.n) == (r, max(n1, n2))
            assert list(union.edges) == expected
            assert union.edge_array.flags.c_contiguous


def _first_violation_by_sorted_labels(H, P):
    """The check as first written: each edge's class labels, sorted, against
    1..r."""
    labels = np.sort(np.asarray(P.class_of)[H.edge_array], axis=1)
    bad = np.flatnonzero((labels != np.arange(1, H.r + 1)).any(axis=1))
    return tuple((H.edge_array[bad[0]] + 1).tolist()) if bad.size else None


def test_first_partition_violation_matches_the_sorted_label_check():
    rng = np.random.default_rng(2022)
    valid = 0
    for _ in range(300):
        r = int(rng.integers(2, 6))
        sizes = [int(v) for v in rng.integers(1, 5, r)]
        H, P = random_r_partite(sizes, int(rng.integers(0, math.prod(sizes) + 1)), rng)
        class_of = list(P.class_of)
        for v in rng.choice(H.n, int(rng.integers(0, 3)), replace=False).tolist():
            class_of[v] = int(rng.integers(1, r + 1))
        P = Partition(tuple(class_of), r)
        found = first_partition_violation(H, P)
        assert found == _first_violation_by_sorted_labels(H, P)
        valid += found is None
    assert 50 < valid < 250
