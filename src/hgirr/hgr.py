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


# Edge lines parsed per chunk: bounds the token lists alive at a time.
_CHUNK = 1 << 14


class HgrFormatError(HypergraphError):
    """Malformed hgr document; messages carry 1-based line numbers."""


def _content_lines(text: str):
    """Yield (line number, line, tokens) for every line that is neither
    blank nor a comment."""
    for lineno, line in enumerate(text.splitlines(), 1):
        tokens = line.split()
        if tokens and tokens[0][0] != "#":
            yield lineno, line, tokens


def _ints(tokens: list[str], lineno: int) -> list[int]:
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise HgrFormatError(f"line {lineno}: expected integer, got {tok!r}") from None
    return values


def _edge_line_numbers(text: str) -> list[int]:
    """Line numbers of the edge lines: the content lines after the header."""
    return [lineno for lineno, _, _ in _content_lines(text)][1:]


def _edge_rows(text: str, edge_lines: list[str], r: int, stop: int) -> np.ndarray:
    """The integers of the first ``stop`` edge lines, each holding r tokens,
    as a (stop, r) int64 array parsed chunk by chunk. A chunk that does not
    parse is scanned line by line for the first token that is no integer.
    If every token is one but some exceed int64, the rows come back as an
    object array of Python ints."""
    rows = np.empty((stop, r), dtype=np.int64)
    linenos = None  # found on the first chunk that fails, for every later one
    for start in range(0, stop, _CHUNK):
        end = min(start + _CHUNK, stop)
        tokens = " ".join(edge_lines[start:end]).split()
        try:
            rows[start:end] = np.fromiter(
                map(int, tokens), dtype=np.int64, count=len(tokens)
            ).reshape(-1, r)
        except (ValueError, OverflowError):
            if linenos is None:
                linenos = _edge_line_numbers(text)
            for i in range(start, end):
                _ints(edge_lines[i].split(), linenos[i])
            rows = rows.astype(object)
            rows[start:end] = np.array([int(tok) for tok in tokens], dtype=object).reshape(-1, r)
    return rows


def parse_hgr(text: str) -> tuple[UniformHypergraph, Partition | None]:
    """Parse an hgr document into a hypergraph and its optional partition."""
    header = None
    edge_lines: list[str] = []
    partition_line = None
    bad_count = None
    for lineno, line, tokens in _content_lines(text):
        if header is None:
            header = lineno
            if len(tokens) != 4 or tokens[0] != "hgr":
                raise HgrFormatError(f"line {lineno}: expected header 'hgr <r> <n> <m>'")
            r, n, m = _ints(tokens[1:], lineno)
            _check_sizes(r, n, HgrFormatError)
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
        edge_lines.append(line)
    if header is None:
        raise HgrFormatError("empty document, expected header 'hgr <r> <n> <m>'")

    if len(edge_lines) != m:
        raise HgrFormatError(
            f"edge count mismatch: header declares m={m}, found {len(edge_lines)} edge lines"
        )
    stop = m if bad_count is None else bad_count[0]
    rows = _edge_rows(text, edge_lines, r, stop) if stop else []
    if bad_count is not None:
        raise HgrFormatError(
            f"line {_edge_line_numbers(text)[stop]}: edge has {bad_count[1]} vertices, expected {r}"
        )
    del edge_lines  # free the lines before build allocates its arrays

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
    for lineno, _, line_tokens in _content_lines(text):
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
