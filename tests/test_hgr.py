import itertools
import random

import pytest

from hgirr import hgr

from hgirr import (
    HgrFormatError,
    HypergraphError,
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


def test_non_ascii_comment_lines_leave_the_result_unchanged():
    # 19,600 edge lines and a partition line; a non-ASCII comment line sends
    # the whole document to the scan, which must read what loadtxt reads
    H, P = complete_r_partite([20, 35, 28])
    text = write_hgr(H, P)
    assert parse_hgr(text) == (H, P)
    lines = text.splitlines()
    for at in (0, 1, len(lines) // 2, len(lines) - 1, len(lines)):
        commented = lines[:at] + ["# Kantengröße \u01fe"] + lines[at:]
        assert parse_hgr("\n".join(commented) + "\n") == (H, P)


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


def test_write_refuses_a_partition_parse_rejects(two_path):
    # one class, a class missing from an edge, a vertex count that differs
    for partition, message in [
        (Partition((1,) * 5, 1), "partition has 1 classes, expected r=3"),
        (Partition((1, 2, 3, 1, 1), 3), "invalid partition for the given edges"),
        (Partition((1, 2, 3, 2), 3), "partition covers 4 vertices, hypergraph has 5"),
    ]:
        with pytest.raises(HypergraphError) as info:
            write_hgr(two_path, partition)
        assert str(info.value) == message
        with pytest.raises(HgrFormatError):
            parse_hgr(write_hgr(two_path) + "partition " + " ".join(map(str, partition.class_of)))


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
    # the header's rank and size are checked before any edge line
    ("hgr -1 5 1\n1\n", "rank must be at least 2, got r=-1"),
    ("hgr 0 5 1\n1 2 3\n", "rank must be at least 2, got r=0"),
    # numpy's reader refuses these; int() refuses the first two and reads
    # the Arabic-Indic digit as 1
    ("hgr 3 5 2\n1 2 3\n3 4 1.0\n", "line 3: expected integer, got '1.0'"),
    ("hgr 3 5 2\n1e0 2 3\n3 4 5\n", "line 2: expected integer, got '1e0'"),
    ("hgr 3 5 2\n1 2 3\n3 2 \u0661\n", "duplicate edge [1, 2, 3] (edge #2)"),
    # numpy 2.4 reads this one as 462
    ("hgr 3 5 2\n1 2 3\n3 4 \u01fe\n", "line 3: expected integer, got '\u01fe'"),
    # vertex ids are int64 array entries
    (
        "hgr 3 18446744073709551616 1\n1 2 3\n",
        "need at most 9223372036854775807 vertices, got n=18446744073709551616",
    ),
]


@pytest.mark.parametrize("text, message", HGR_ERRORS)
def test_parse_error_messages_are_pinned(text, message):
    with pytest.raises(HgrFormatError) as info:
        parse_hgr(text)
    assert str(info.value) == message


def test_parse_scans_many_reversed_lines_and_reports_the_first_bad_token():
    # 19,600 edge lines in reverse order, with uneven whitespace, after a
    # comment line that sends the document to the line-by-line scan
    H = build(3, 50, itertools.combinations(range(1, 51), 3))
    lines = [f"  {a}\t{b}  {c} " for a, b, c in reversed(H.edges)]
    parsed, _ = parse_hgr(f"hgr 3 50 {H.m}\n# edges\n" + "\n".join(lines) + "\n")
    assert parsed == H
    lines[-2] = "1 2 y"
    with pytest.raises(HgrFormatError) as info:
        parse_hgr(f"hgr 3 50 {H.m}\n# edges\n" + "\n".join(lines) + "\n")
    assert str(info.value) == f"line {H.m + 1}: expected integer, got 'y'"
    # the scan reads an id beyond int64 on the first edge line as a Python
    # int, so the bad token near the end is still the first error
    lines[0] = "1 2 99999999999999999999999"
    with pytest.raises(HgrFormatError) as info:
        parse_hgr(f"hgr 3 50 {H.m}\n# edges\n" + "\n".join(lines) + "\n")
    assert str(info.value) == f"line {H.m + 1}: expected integer, got 'y'"


# Pieces of generated documents: separators, line ends and filler lines the
# scan treats as blank or as comments, and the forms an id may take.
_SEPARATORS = [" ", "  ", "\t", " \t ", "\xa0", "\u3000"]
_LINE_ENDS = ["\n", "\r\n", "\r"]
_FILLERS = ["", "   ", "\t", "\xa0", "# comment", "#", "  # indented", "#1 2 3"]


def _token(v, rng, odd):
    """v as a token: plain, or with probability ``odd`` in a form int()
    reads as v, one it refuses, or an id beyond int64 ('\u01fe' is read as
    462 by numpy 2.4)."""
    if rng.random() >= odd:
        return str(v)
    return rng.choice([
        f"+{v}", f"0{v}", f"00{v}", f"{v // 10}_{v % 10}" if v >= 10 else f"+0{v}",
        "".join(chr(0x660 + int(c)) for c in str(v)),
        f"{v}.0", f"{v}e0", str(v + 2**64), "\u01fe", "x",
    ])


def _document(rng):
    """A generated 3-uniform document on 12 vertices, classes v % 3, whose
    edges are transversals; some are valid, some break one rule."""
    m = rng.choice([0, 1, 1, 2, 5, 9, 9])
    odd = rng.choice([0.0, 0.0, 0.02, 0.1])
    transversals = list(itertools.product(range(1, 13, 3), range(2, 13, 3), range(3, 13, 3)))
    edges = [list(e) for e in rng.sample(transversals, m)]
    for e in edges:
        if rng.random() < 0.3:
            rng.shuffle(e)
    fault = rng.choice([None] * 12 + ["drop", "repeat", "range", "width"])
    if fault == "drop" and edges:
        edges.pop()
    elif fault == "repeat" and len(edges) > 1:
        edges[-1] = edges[0][::-1]
    elif fault == "range" and edges:
        edges[-1][0] = 13
    elif fault == "width" and edges:
        edges[0].append(1)

    def line(words):
        out = rng.choice(["", "", " ", "\t"])
        for i, w in enumerate(words):
            if i:
                out += " " if rng.random() < 0.9 else rng.choice(_SEPARATORS)
            out += w
        return out + ("" if rng.random() < 0.9 else rng.choice([" ", "\t", "\xa0"]))

    lines = [line(["hgr", "3", "12", str(m)])]
    lines += [line([_token(v, rng, odd) for v in e]) for e in edges]
    classes = [line(["partition"] + [_token((v - 1) % 3 + 1, rng, odd) for v in range(1, 13)])]
    placement = rng.choice(["none"] * 3 + ["last"] * 3 + ["middle", "twice", "suffixed"])
    if placement == "last":
        lines += classes
    elif placement == "middle":
        lines.insert(max(1, len(lines) - 1), classes[0])
    elif placement == "twice":
        lines += classes * 2
    elif placement == "suffixed":
        lines.append(classes[0].replace("partition", "partitionX", 1))
    for _ in range(rng.choice([0, 0, 1, 3])):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(_FILLERS))
    ends = rng.choice(_LINE_ENDS)
    return "".join(ln + (ends if rng.random() < 0.9 else rng.choice(_LINE_ENDS)) for ln in lines)


def _outcome(read, text):
    """(H, partition) from one of the readers, the error string, or None
    when the reader refuses the document."""
    try:
        parts = read(text.splitlines())
        return None if parts is None else hgr._assemble(*parts)
    except HgrFormatError as exc:
        return str(exc)


def test_loadtxt_path_agrees_with_the_reference_scan():
    rng = random.Random(11)
    # one character in or as a token: every ASCII one, which the loadtxt
    # path hands to numpy as is, and the non-ASCII ones up to U+07FF, some
    # of which numpy 2.4 reads as digits where int() refuses them, and which
    # parse_hgr therefore hands to the scan alone
    odd_characters = [
        f"hgr 3 5 1\n1 2 {c}\n" for c in map(chr, range(0x800))
    ] + [f"hgr 3 5 1\n1 2 3{c}\n" for c in map(chr, range(0x800))]
    texts = odd_characters + [_document(rng) for _ in range(1500)]
    accepted = 0
    for text in texts:
        # the reference is the scan, which reads every token with int()
        reference = _outcome(hgr._read_scan, text)
        fast = _outcome(hgr._read_loadtxt, text) if text.isascii() else None
        # the loadtxt path accepts only what the scan accepts, with the
        # same result, and raises nothing but the scan's header errors
        assert fast is None or fast == reference, repr(text)
        accepted += isinstance(fast, tuple)
        try:
            parsed = parse_hgr(text)
        except HgrFormatError as exc:
            parsed = str(exc)
        assert parsed == reference, repr(text)
    assert accepted > 100
