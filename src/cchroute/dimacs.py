"""Readers and writers for the on-disk text formats.

Vertex IDs are 1-based in DIMACS files and 0-based everywhere in memory.
Order files are the exception: they are 0-based on disk as well (line r
holds the vertex at rank r). Every text format is UTF-8, and blank lines
and lines starting with ``c`` are skipped.
"""

from __future__ import annotations

from .errors import ConsistencyError, ParseError
from .graph import INFINITY, Coordinates, InputGraph

FORBIDDEN = -1
"""Turn-table cost sentinel: the (in, out) arc pair may not be taken."""


def _tokens(path: str):
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, raw in enumerate(f, start=1):
                line = raw.strip()
                if not line or line.startswith("c"):
                    continue
                yield lineno, line.split()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None


def read_id_lines(path: str) -> list[int]:
    """Read one integer per line (order files, source/target lists)."""
    out = []
    for lineno, parts in _tokens(path):
        try:
            (v,) = parts
            out.append(int(v))
        except ValueError:
            raise ParseError(f"not a vertex ID: {' '.join(parts)!r}", lineno) from None
    return out


def read_pairs(path: str) -> list[tuple[int, int]]:
    """Read one ``<s> <t>`` pair of integers per line (query batches)."""
    pairs = []
    for lineno, parts in _tokens(path):
        if len(parts) != 2:
            raise ParseError(f"expected '<s> <t>', got {' '.join(parts)!r}", lineno)
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"non-integer pair {' '.join(parts)!r}", lineno) from None
    return pairs


def _arc_line(parts: list[str], n: int, lineno: int) -> tuple[int, int, int]:
    """0-based (tail, head, weight) of an ``a <tail> <head> <weight>`` line."""
    if len(parts) != 4:
        raise ParseError(f"expected 'a <tail> <head> <weight>', got {' '.join(parts)}", lineno)
    try:
        t, h, w = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError("non-integer arc fields", lineno) from None
    if not (1 <= t <= n and 1 <= h <= n):
        raise ConsistencyError(f"line {lineno}: vertex ID out of [1, {n}]")
    if not (0 <= w < INFINITY):
        raise ConsistencyError(f"line {lineno}: weight {w} outside [0, {INFINITY})")
    return t - 1, h - 1, w


def load_dimacs_gr(path: str) -> InputGraph:
    """Load a DIMACS .gr shortest-path instance.

    Duplicate arcs collapse to the minimum weight and self-loops are
    dropped (the count is kept on the returned graph).
    """
    n = m = None
    arcs: list[tuple[int, int, int]] = []
    for lineno, parts in _tokens(path):
        kind = parts[0]
        if kind == "p":
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "sp":
                raise ParseError(f"expected 'p sp <n> <m>', got {' '.join(parts)}", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-integer problem line fields", lineno) from None
            # every artifact column is int32
            if not (0 <= n < 2**31 and 0 <= m < 2**31):
                raise ParseError("vertex or arc count outside [0, 2**31)", lineno)
        elif kind == "a":
            if n is None:
                raise ParseError("arc line before problem line", lineno)
            arcs.append(_arc_line(parts, n, lineno))
        else:
            raise ParseError(f"unknown line type {kind!r}", lineno)
    if n is None:
        raise ParseError("missing 'p sp' problem line")
    if len(arcs) != m:
        raise ConsistencyError(f"problem line promises {m} arcs, file has {len(arcs)}")
    return InputGraph.from_arcs(n, arcs)


def store_dimacs_gr(g: InputGraph, path: str) -> None:
    """Write a graph back out as DIMACS .gr (1-based IDs)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"p sp {g.vertex_count} {g.arc_count}\n")
        for i in range(g.arc_count):
            f.write(f"a {g.tail[i] + 1} {g.head[i] + 1} {g.weight[i]}\n")


def load_dimacs_co(path: str, n: int) -> Coordinates:
    """Load DIMACS .co coordinates; every vertex must appear exactly once."""
    xs: list[int | None] = [None] * n
    ys: list[int | None] = [None] * n
    for lineno, parts in _tokens(path):
        kind = parts[0]
        if kind == "p":
            continue
        if kind != "v":
            raise ParseError(f"unknown line type {kind!r}", lineno)
        if len(parts) != 4:
            raise ParseError(f"expected 'v <id> <x> <y>', got {' '.join(parts)}", lineno)
        try:
            vid, x, y = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ParseError("non-integer coordinate fields", lineno) from None
        if not (1 <= vid <= n):
            raise ConsistencyError(f"line {lineno}: vertex ID {vid} out of [1, {n}]")
        if xs[vid - 1] is not None:
            raise ConsistencyError(f"line {lineno}: duplicate coordinates for vertex {vid}")
        xs[vid - 1] = x
        ys[vid - 1] = y
    missing = [i + 1 for i in range(n) if xs[i] is None]
    if missing:
        raise ConsistencyError(f"missing coordinates for vertices {missing[:5]}"
                               + ("..." if len(missing) > 5 else ""))
    return Coordinates(x=xs, y=ys)  # type: ignore[arg-type]


def load_turn_table(path: str, g: InputGraph) -> dict[tuple[int, int], int]:
    """Load turn costs: lines ``t <inTail> <inHead> <outHead> <cost|x>``.

    Returns a mapping (in-arc, out-arc) -> cost with FORBIDDEN for ``x``.
    Pairs absent from the table default to cost 0 at expansion time.
    """
    table: dict[tuple[int, int], int] = {}
    for lineno, parts in _tokens(path):
        if parts[0] != "t":
            raise ParseError(f"unknown line type {parts[0]!r}", lineno)
        if len(parts) != 5:
            raise ParseError(f"expected 't <inTail> <inHead> <outHead> <cost|x>', got {' '.join(parts)}", lineno)
        try:
            a, b, c = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ParseError("non-integer vertex fields", lineno) from None
        n = g.vertex_count
        if not (1 <= a <= n and 1 <= b <= n and 1 <= c <= n):
            raise ConsistencyError(f"line {lineno}: vertex ID out of [1, {n}]")
        in_arc = g.arc_index(a - 1, b - 1)
        out_arc = g.arc_index(b - 1, c - 1)
        if in_arc is None or out_arc is None:
            raise ConsistencyError(f"line {lineno}: turn references nonexistent arc")
        if parts[4] == "x":
            cost = FORBIDDEN
        else:
            try:
                cost = int(parts[4])
            except ValueError:
                raise ParseError(f"cost must be an integer or 'x', got {parts[4]!r}", lineno) from None
            if not (0 <= cost < INFINITY):
                raise ConsistencyError(f"line {lineno}: turn cost {cost} outside [0, {INFINITY})")
        key = (in_arc, out_arc)
        if key in table:
            raise ConsistencyError(f"line {lineno}: duplicate turn entry")
        table[key] = cost
    return table


def load_metric(path: str, g: InputGraph) -> list[int]:
    """Load a replacement weight function for the arcs of ``g``.

    Lines are DIMACS-style ``a <tail> <head> <weight>`` (1-based) and must
    reference stored arcs of the graph. Arcs absent from the file get
    weight INFINITY. Duplicates collapse to the minimum.
    """
    weights = [INFINITY] * g.arc_count
    n = g.vertex_count
    for lineno, parts in _tokens(path):
        if parts[0] == "p":
            continue
        if parts[0] != "a":
            raise ParseError(f"unknown line type {parts[0]!r}", lineno)
        t, h, w = _arc_line(parts, n, lineno)
        idx = g.arc_index(t, h)
        if idx is None:
            raise ConsistencyError(f"line {lineno}: arc ({t + 1}, {h + 1}) not in graph")
        if w < weights[idx]:
            weights[idx] = w
    return weights
