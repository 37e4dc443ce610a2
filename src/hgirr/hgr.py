"""Plain-text hypergraph documents (the ``hgr`` format).

Layout::

    hgr <r> <n> <m>
    <r space-separated 1-based vertex ids>     (m edge lines)
    partition <c_1> ... <c_n>                  (optional, classes in 1..r)

Blank lines and lines starting with ``#`` are ignored. Edges may appear in
any vertex order; parsing canonicalizes them. Serialization is canonical and
byte-deterministic: edges sorted lexicographically, one trailing newline per
line.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from .core import (
    HypergraphError,
    Partition,
    UniformHypergraph,
    _check_sizes,
    build,
    validate_partition,
)

__all__ = ["HgrFormatError", "parse_hgr", "parse_partition_text", "write_hgr"]


class HgrFormatError(HypergraphError):
    """Malformed hgr document; messages carry 1-based line numbers."""


def _tokens(line: str) -> list[str]:
    """The tokens of a line, or none for a blank or comment line."""
    tokens = line.split()
    return tokens if tokens and tokens[0][0] != "#" else []


def _content_lines(lines: list[str]):
    """Yield (line number, line, tokens) for every line that is neither
    blank nor a comment."""
    for lineno, line in enumerate(lines, 1):
        tokens = _tokens(line)
        if tokens:
            yield lineno, line, tokens


def _ints(tokens: list[str], lineno: int) -> list[int]:
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise HgrFormatError(f"line {lineno}: expected integer, got {tok!r}") from None
    return values


def _header(tokens: list[str], lineno: int) -> tuple[int, int, int]:
    if len(tokens) != 4 or tokens[0] != "hgr":
        raise HgrFormatError(f"line {lineno}: expected header 'hgr <r> <n> <m>'")
    r, n, m = _ints(tokens[1:], lineno)
    _check_sizes(r, n, HgrFormatError)
    return r, n, m


def _loadtxt_rows(lines: list[str], r: int, m: int) -> np.ndarray | None:
    """The edge lines as an (m, r) int64 array read by numpy's C tokenizer,
    or None when it refuses them or reads another shape. Blank lines are
    skipped as in the scan; a comment line, a word or an id that int64 does
    not hold makes it refuse. Warnings are raised, so that a numpy that only
    warns when it reads '1.0' as an int refuses it too."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, OverflowError, Warning):
        return None
    return rows if rows.shape == (m, r) else None


def _read_loadtxt(lines: list[str]) -> tuple | None:
    """The parts of a well-formed document, found without splitting every
    line: the header is the first content line, an optional partition line
    the last, and every line between them goes to ``_loadtxt_rows``. None
    whenever that refuses; an edgeless document never reaches it. A bad
    header raises the scan's error, as the scan reads the same line first."""
    first = next(_content_lines(lines), None)
    if first is None:
        return None
    header, _, tokens = first
    r, n, m = _header(tokens, header)
    end = len(lines)
    while not (tokens := _tokens(lines[end - 1])):
        end -= 1
    partition_line = None
    if end > header and tokens[0] == "partition":
        partition_line = (end, tokens[1:])
        end -= 1
    if m == 0 or end - header < m:
        return None
    rows = _loadtxt_rows(lines[header:end], r, m)
    return None if rows is None else (r, n, rows, partition_line)


def _read_scan(lines: list[str]) -> tuple:
    """The parts of a document, line by line: the reference reader, and the
    only one that raises. Every token is read with ``int``, which raises the
    first error or reads what numpy refuses ('1_0', non-ASCII digits); ids
    beyond int64 travel as Python ints in an object array."""
    header = None
    edge_lines: list[tuple[int, str]] = []
    partition_line = None
    bad_count = None
    for lineno, line, tokens in _content_lines(lines):
        if header is None:
            header = lineno
            r, n, m = _header(tokens, lineno)
            continue
        if tokens[0] == "partition":
            if partition_line is not None:
                raise HgrFormatError(f"line {lineno}: duplicate partition line")
            partition_line = (lineno, tokens[1:])
            continue
        if partition_line is not None:
            raise HgrFormatError(f"line {lineno}: content after partition line")
        if bad_count is None and len(tokens) != r:
            bad_count = (len(edge_lines), len(tokens))
        edge_lines.append((lineno, line))
    if header is None:
        raise HgrFormatError("empty document, expected header 'hgr <r> <n> <m>'")

    if len(edge_lines) != m:
        raise HgrFormatError(
            f"edge count mismatch: header declares m={m}, found {len(edge_lines)} edge lines"
        )
    stop = m if bad_count is None else bad_count[0]
    tokens = itertools.chain.from_iterable(line.split() for _, line in edge_lines[:stop])
    try:
        rows = np.fromiter(map(int, tokens), dtype=np.int64, count=stop * r)
    except (ValueError, OverflowError):
        # raises the first token that is no integer, else keeps the ids
        # beyond int64 as Python ints
        rows = np.array(
            [_ints(line.split(), lineno) for lineno, line in edge_lines[:stop]],
            dtype=object,
        )
    rows = rows.reshape(-1, r)
    if bad_count is not None:
        lineno = edge_lines[bad_count[0]][0]
        raise HgrFormatError(f"line {lineno}: edge has {bad_count[1]} vertices, expected {r}")
    return r, n, rows, partition_line


def _assemble(r: int, n: int, rows, partition_line) -> tuple[UniformHypergraph, Partition | None]:
    try:
        H = build(r, n, rows)
    except HypergraphError as exc:
        raise HgrFormatError(str(exc)) from None

    partition = None
    if partition_line is not None:
        lineno, tokens = partition_line
        if len(tokens) != n:
            raise HgrFormatError(
                f"line {lineno}: partition assigns {len(tokens)} vertices, expected {n}"
            )
        class_of = _ints(tokens, lineno)
        try:
            partition = Partition(tuple(class_of), r)
        except HypergraphError as exc:
            raise HgrFormatError(f"line {lineno}: {exc}") from None
        if not validate_partition(H, partition):
            raise HgrFormatError(f"line {lineno}: invalid partition for the given edges")
    return H, partition


def parse_hgr(text: str) -> tuple[UniformHypergraph, Partition | None]:
    """Parse an hgr document into a hypergraph and its optional partition.

    A well-formed ASCII document's edge lines are read in one call to numpy's
    ``loadtxt``; anything it refuses is read again by the line-by-line scan,
    which gives every error message. Any other document goes to the scan
    alone: numpy 2.4 reads some other characters as digits ('\u01fe' as
    462), where ``int`` refuses them or reads other values."""
    lines = text.splitlines()
    parts = (text.isascii() and _read_loadtxt(lines)) or _read_scan(lines)
    del lines  # free the lines before build allocates its arrays
    return _assemble(*parts)


def write_hgr(H: UniformHypergraph, partition: Partition | None = None) -> str:
    """Serialize to the canonical hgr form (deterministic bytes).

    A partition is written only if it is one :func:`parse_hgr` accepts: r
    classes covering the n vertices, every edge meeting each class once.
    """
    if partition is not None and not validate_partition(H, partition):
        raise HypergraphError("invalid partition for the given edges")
    out = [f"hgr {H.r} {H.n} {H.m}"]
    out.extend(" ".join(str(v) for v in edge) for edge in H.edges)
    if partition is not None:
        out.append("partition " + " ".join(str(c) for c in partition.class_of))
    return "\n".join(out) + "\n"


def parse_partition_text(text: str, n: int, r: int) -> Partition:
    """Parse a standalone partition file: n class ids, optionally preceded by
    the word 'partition'; comments and blank lines are ignored."""
    tokens: list[tuple[str, int]] = []
    for lineno, _, line_tokens in _content_lines(text.splitlines()):
        tokens.extend((tok, lineno) for tok in line_tokens)
    if tokens and tokens[0][0] == "partition":
        tokens = tokens[1:]
    if len(tokens) != n:
        raise HgrFormatError(
            f"partition file assigns {len(tokens)} vertices, expected {n}"
        )
    class_of = [_ints([tok], lineno)[0] for tok, lineno in tokens]
    try:
        return Partition(tuple(class_of), r)
    except HypergraphError as exc:
        raise HgrFormatError(str(exc)) from None
