"""The repo's canonical edge-list text format.

Layout: the first non-comment line is ``n m``; the next ``m`` non-comment
lines are edges ``u v`` with ``0 <= u < v < n``.  A ``#`` starts a comment
anywhere on a line.  ASCII only; LF or CRLF line endings, and no other
character breaks a line.  Fields are separated by spaces or tabs, and an
integer is an optional ``-`` and the digits 0-9.  Duplicate edges,
loops, and out-of-order endpoints are parse errors rather than silently
repaired input.
"""

from __future__ import annotations

import os
import re

from .errors import ParseError
from .graph import Graph

# _PAIR accepts a data line in one match; the other two only diagnose a
# line it rejects.
_FIELD = re.compile(r"[^ \t]+")
_INTEGER = re.compile(r"-?[0-9]+")
_PAIR = re.compile(r"[ \t]*(-?[0-9]+)[ \t]+(-?[0-9]+)[ \t]*")


def parse(text: str) -> Graph:
    """Parse edge-list ``text`` into a Graph, raising ParseError with position."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        hash_at = raw.find("#")
        body = raw if hash_at < 0 else raw[:hash_at]
        pair = _PAIR.fullmatch(body)
        if pair is None:
            fields = list(_FIELD.finditer(body))
            if not fields:
                continue
            if len(fields) != 2:
                raise ParseError(f"expected two integers, got {len(fields)} fields", lineno, 1)
            bad = next(f for f in fields if not _INTEGER.fullmatch(f[0]))
            raise ParseError(f"not a decimal integer: {bad[0]!r}", lineno, bad.start() + 1)
        a, b = int(pair[1]), int(pair[2])
        if header is None:
            if a < 0 or b < 0:
                raise ParseError("vertex and edge counts must be non-negative", lineno, 1)
            header = (a, b)
            continue
        n, m = header
        if len(edges) == m:
            raise ParseError(f"more than the declared {m} edges", lineno, 1)
        if a == b:
            raise ParseError(f"loop edge at vertex {a}", lineno, 1)
        if a > b:
            raise ParseError(f"edge must be written with u < v, got {a} {b}", lineno, 1)
        if not 0 <= a < n or not b < n:
            raise ParseError(f"edge ({a}, {b}) outside 0..{n - 1}", lineno, 1)
        if (a, b) in seen:
            raise ParseError(f"duplicate edge ({a}, {b})", lineno, 1)
        seen.add((a, b))
        edges.append((a, b))
    if header is None:
        raise ParseError("missing `n m` header line", 1, 1)
    if len(edges) != header[1]:
        raise ParseError(f"declared {header[1]} edges but found {len(edges)}", 1, 1)
    return Graph.from_edges(header[0], edges)


def serialize(g: Graph, comments: tuple[str, ...] = ()) -> str:
    """Canonical text for ``g``: header then sorted edges, LF endings."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{g.n} {g.edge_count}")
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def decode(data: bytes) -> str:
    """The text of an edge-list file's bytes, raising ParseError unless ASCII."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not ASCII: {exc.reason}", 1, 1) from None


def load(path: str | os.PathLike) -> Graph:
    with open(path, "rb") as fh:
        return parse(decode(fh.read()))


def dump(g: Graph, path: str | os.PathLike, comments: tuple[str, ...] = ()) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(serialize(g, comments))
