import itertools

import pytest

from hgirr import (
    HgrFormatError,
    Partition,
    build,
    complete_r_partite,
    parse_hgr,
    parse_partition_text,
    single_edge,
    write_hgr,
)


def test_parse_two_path(two_path):
    H, P = parse_hgr("hgr 3 5 2\n1 2 3\n1 4 5\n")
    assert H == two_path
    assert P is None


def test_parse_canonicalizes_unsorted_edges(two_path):
    H, _ = parse_hgr("hgr 3 5 2\n3 2 1\n5 1 4\n")
    assert H == two_path


def test_parse_ignores_comments_and_blanks(two_path):
    text = "# a comment\n\nhgr 3 5 2\n1 2 3\n# interior\n\n1 4 5\n"
    H, _ = parse_hgr(text)
    assert H == two_path


def test_parse_partition_line(two_path, two_path_partition):
    H, P = parse_hgr("hgr 3 5 2\n1 2 3\n1 4 5\npartition 1 2 3 2 3\n")
    assert H == two_path
    assert P == two_path_partition


def test_parse_edge_count_mismatch():
    with pytest.raises(HgrFormatError, match="edge count mismatch"):
        parse_hgr("hgr 3 5 3\n1 2 3\n1 4 5\n")
    with pytest.raises(HgrFormatError, match="edge count mismatch"):
        parse_hgr("hgr 3 5 1\n1 2 3\n1 4 5\n")


def test_parse_bad_header():
    with pytest.raises(HgrFormatError, match="header"):
        parse_hgr("graph 3 5 2\n")
    with pytest.raises(HgrFormatError, match="header"):
        parse_hgr("hgr 3 5\n")
    with pytest.raises(HgrFormatError, match="empty"):
        parse_hgr("# nothing\n")


def test_parse_malformed_line_number():
    with pytest.raises(HgrFormatError, match="line 3"):
        parse_hgr("hgr 3 5 2\n1 2 3\n1 4 x\n")
    with pytest.raises(HgrFormatError, match="line 2"):
        parse_hgr("hgr 3 5 1\n1 2\n")


def test_parse_propagates_build_validation():
    with pytest.raises(HgrFormatError, match="repeated vertex"):
        parse_hgr("hgr 3 5 1\n1 2 2\n")
    with pytest.raises(HgrFormatError, match="out of range"):
        parse_hgr("hgr 3 5 1\n1 2 9\n")


def test_parse_partition_validation():
    with pytest.raises(HgrFormatError, match="assigns 3"):
        parse_hgr("hgr 3 5 1\n1 2 3\npartition 1 2 3\n")
    with pytest.raises(HgrFormatError, match="invalid partition"):
        parse_hgr("hgr 3 5 1\n1 2 3\npartition 1 1 2 2 3\n")
    with pytest.raises(HgrFormatError, match="content after partition"):
        parse_hgr("hgr 3 5 2\n1 2 3\npartition 1 2 3 2 3\n1 4 5\n")
    with pytest.raises(HgrFormatError, match="duplicate partition"):
        parse_hgr(
            "hgr 3 5 1\n1 2 3\npartition 1 2 3 2 3\npartition 1 2 3 2 3\n"
        )


def test_write_single_edge():
    assert write_hgr(single_edge(3)) == "hgr 3 3 1\n1 2 3\n"


def test_write_partition_trailing_line(two_path, two_path_partition):
    text = write_hgr(two_path, two_path_partition)
    assert text.endswith("partition 1 2 3 2 3\n")


def test_round_trip_identity(two_path, two_path_partition):
    text = write_hgr(two_path, two_path_partition)
    H, P = parse_hgr(text)
    assert H == two_path and P == two_path_partition
    assert write_hgr(H, P) == text


def test_write_canonical_determinism():
    H, P = complete_r_partite([2, 2])
    text = write_hgr(H, P)
    H2, P2 = parse_hgr(text)
    assert write_hgr(H2, P2) == text


def test_parse_partition_text_forms():
    P = parse_partition_text("partition 1 2 3 2 3\n", 5, 3)
    assert P == Partition((1, 2, 3, 2, 3), 3)
    P = parse_partition_text("# classes\n1 2 3\n2 3\n", 5, 3)
    assert P == Partition((1, 2, 3, 2, 3), 3)
    with pytest.raises(HgrFormatError, match="assigns 4"):
        parse_partition_text("1 2 3 2", 5, 3)
    with pytest.raises(HgrFormatError):
        parse_partition_text("1 2 9 2 3", 5, 3)


HGR_ERRORS = [
    ("hgr 3 5 2\n1 2 x\n3 4 5\n", "line 2: expected integer, got 'x'"),
    ("hgr 3 5 2\n1 2\n3 4 5\n", "line 2: edge has 2 vertices, expected 3"),
    ("hgr 3 5 2\n1 2 3 4\n3 4 5\n", "line 2: edge has 4 vertices, expected 3"),
    ("hgr 3 5 2\n1 2 3\n1 x\n", "line 3: edge has 2 vertices, expected 3"),
    ("hgr 3 5 2\n1 2 3 4\n1 x 3\n", "line 2: edge has 4 vertices, expected 3"),
    ("hgr 3 5 2\n1 2 2\n3 4 5\n", "edge #1 [1, 2, 2] has a repeated vertex"),
    ("hgr 3 5 2\n1 2 3\n3 4 9\n", "edge #2 [3, 4, 9]: vertex id 9 out of range [1, 5]"),
    ("hgr 3 5 3\n1 2 3\n3 4 5\n3 2 1\n", "duplicate edge [1, 2, 3] (edge #3)"),
    # errors in two edges: the earlier position wins
    ("hgr 3 5 3\n1 2 3\n3 4 9\n1 1 2\n", "edge #2 [3, 4, 9]: vertex id 9 out of range [1, 5]"),
    ("hgr 3 5 3\n4 4 1\n1 2 3\n3 2 1\n", "edge #1 [4, 4, 1] has a repeated vertex"),
    ("hgr 3 5 3\n1 2 3\n3 2 1\n5 5 4\n", "duplicate edge [1, 2, 3] (edge #2)"),
    # a syntax error anywhere comes before any edge error
    ("hgr 3 5 2\n1 2 99999999999999999999999\n1 2 x\n", "line 3: expected integer, got 'x'"),
    (
        "hgr 3 5 1\n1 2 99999999999999999999999\n",
        "edge #1 [1, 2, 99999999999999999999999]: "
        "vertex id 99999999999999999999999 out of range [1, 5]",
    ),
    (
        "hgr 3 5 2\n99999999999999999999999 99999999999999999999999 1\n1 2 3\n",
        "edge #1 [99999999999999999999999, 99999999999999999999999, 1] has a repeated vertex",
    ),
    ("hgr 3 5 2\n1 2 3\n3 4 5\npartition 1 2 3 1\n", "line 4: partition assigns 4 vertices, expected 5"),
    (
        "hgr 3 5 2\n1 2 3\n3 4 5\npartition 1 2 3 1 4\n",
        "line 4: vertex 5 assigned to class 4, outside [1, 3]",
    ),
    ("hgr 3 5 2\n1 2 3\n3 4 5\npartition 1 2 3 1 1\n", "line 4: invalid partition for the given edges"),
    ("hgr 3 5 2\n1 2 3\npartition 1 2 3 1 2\n3 4 5\n", "line 4: content after partition line"),
    (
        "hgr 3 5 2\n1 2 3\n3 4 5\npartition 1 2 3 1 2\npartition 1 2 3 1 2\n",
        "line 5: duplicate partition line",
    ),
    ("hgr 3 5 2\n1 2 3\n3 4 5\npartition 1 2 z 1 2\n", "line 4: expected integer, got 'z'"),
    ("\n# c\nhgr 3 5 2\n\n1 2 3\n# x\n3 4 x\n", "line 7: expected integer, got 'x'"),
    ("hgr 3 5 1\n1 2 3\n3 4 5\n", "edge count mismatch: header declares m=1, found 2 edge lines"),
    ("hgr 1 5 1\n1\n", "rank must be at least 2, got r=1"),
]


@pytest.mark.parametrize("text, message", HGR_ERRORS)
def test_parse_error_messages_are_pinned(text, message):
    with pytest.raises(HgrFormatError) as info:
        parse_hgr(text)
    assert str(info.value) == message


def test_parse_spans_several_chunks():
    # more edge lines than one parsing chunk holds, in reverse order and
    # with uneven whitespace
    H = build(3, 50, itertools.combinations(range(1, 51), 3))
    lines = [f"  {a}\t{b}  {c} " for a, b, c in reversed(H.edges)]
    parsed, _ = parse_hgr(f"hgr 3 50 {H.m}\n# edges\n" + "\n".join(lines) + "\n")
    assert parsed == H
    lines[-2] = "1 2 y"
    with pytest.raises(HgrFormatError) as info:
        parse_hgr(f"hgr 3 50 {H.m}\n# edges\n" + "\n".join(lines) + "\n")
    assert str(info.value) == f"line {H.m + 1}: expected integer, got 'y'"
    # an id beyond int64 in the first chunk, a bad token in the second
    lines[0] = "1 2 99999999999999999999999"
    with pytest.raises(HgrFormatError) as info:
        parse_hgr(f"hgr 3 50 {H.m}\n# edges\n" + "\n".join(lines) + "\n")
    assert str(info.value) == f"line {H.m + 1}: expected integer, got 'y'"
