"""Readers and writers for every on-disk format.

Text formats: DIMACS ``.gr``/``.co`` graphs, metric files, turn tables,
order files, query batches and source/target lists. Vertex IDs are
1-based in DIMACS files and 0-based everywhere in memory; order files,
batches and ID lists are 0-based on disk as well (line r of an order file
holds the vertex at rank r). Every text format is UTF-8, and blank lines
and lines starting with ``c`` are skipped. Readers check each vertex ID
against the vertex count as they read it, so a range error names its line.

Binary artifacts: a CCHP holds a ``Cch`` and a CCHM a ``Customized``.
Each is a magic and version header, then columns of little-endian 4-byte
values (``graph.le_bytes``), then the CRC32 of every byte before it as a
4-byte trailer. In memory each column is an ``array`` whose bytes are the
file's, so reading is one ``frombytes`` per column. A CCHM embeds the
CCHP without its trailer behind its own header and perfect flag, and its
one trailer covers both. Each loader checks its own header and trailer
and reads the columns; ``Cch.from_columns`` and ``customize.check_witnesses``
then check the structure the bytes encode.
"""

from __future__ import annotations

import sys
import zlib
from array import array
from bisect import bisect_left

from .customize import Customized, CustomizedMetric, check_witnesses
from .errors import ConsistencyError, FormatError, ParseError
from .graph import INFINITY, Coordinates, InputGraph, le_bytes
from .order import RankOrder
from .preprocess import Cch
from .turns import FORBIDDEN, TurnTable

CCHP_MAGIC = b"CCHP"
CCHP_VERSION = 2
CCHM_MAGIC = b"CCHM"
CCHM_VERSION = 2

MAX_VERTICES = 1 << 25
"""Most vertices a ``.gr`` problem line may declare: 33,554,432, above
the 23,947,347 of the largest DIMACS road graph (USA). Loading allocates
about 12 bytes per declared vertex, isolated ones included, whatever the
file's arcs; the ceiling bounds that at about 400 MB. A larger count
raises ConsistencyError (exit 3) before anything is allocated."""


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


def _vertex(v: int, n: int, lineno: int) -> int:
    """``v``, or a ConsistencyError naming ``lineno`` unless it lies in [0, n)."""
    if not (0 <= v < n):
        raise ConsistencyError(f"line {lineno}: vertex ID {v} out of [0, {n})")
    return v


def read_id_lines(path: str, n: int) -> list[int]:
    """Read one vertex ID in [0, n) per line (order files, source/target lists)."""
    out = []
    for lineno, parts in _tokens(path):
        try:
            (v,) = parts
            out.append(_vertex(int(v), n, lineno))
        except ValueError:
            raise ParseError(f"not a vertex ID: {' '.join(parts)!r}", lineno) from None
    return out


def read_pairs(path: str, n: int) -> list[tuple[int, int]]:
    """Read one ``<s> <t>`` pair of vertex IDs in [0, n) per line (query batches)."""
    pairs = []
    for lineno, parts in _tokens(path):
        if len(parts) != 2:
            raise ParseError(f"expected '<s> <t>', got {' '.join(parts)!r}", lineno)
        try:
            s, t = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer pair {' '.join(parts)!r}", lineno) from None
        pairs.append((_vertex(s, n, lineno), _vertex(t, n, lineno)))
    return pairs


def import_order(path: str, n: int) -> RankOrder:
    """Read an order file: n lines, line r holds the vertex at rank r."""
    vertex_at = read_id_lines(path, n)
    if len(vertex_at) != n:
        raise ConsistencyError(f"order file has {len(vertex_at)} lines, expected {n}")
    return RankOrder(vertex_at)


def export_order(order: RankOrder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for v in order.vertex_at:
            f.write(f"{v}\n")


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
    dropped (the count is kept on the returned graph). A problem line
    declaring more than ``MAX_VERTICES`` vertices raises ConsistencyError.
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
            if n > MAX_VERTICES:
                raise ConsistencyError(
                    f"line {lineno}: {n} vertices declared, more than the {MAX_VERTICES} admitted")
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


def load_turn_table(path: str, g: InputGraph) -> TurnTable:
    """Load turn costs: lines ``t <inTail> <inHead> <outHead> <cost|x>``.

    Fills the free table ``TurnTable(g)`` and returns it, with FORBIDDEN
    for ``x``, so it fits ``g`` as built. Pairs absent from the file are
    free, as are pairs listed with cost 0; a pair listed twice is
    rejected either way. A line whose in-arc or out-arc is a self-loop is
    skipped once its IDs and cost are checked, as ``load_dimacs_gr``
    drops that arc.
    """
    table = TurnTable(g)
    first, cost = table.first, table.cost
    first_out, head = g.first_out, g.head
    n = g.vertex_count
    seen = bytearray(len(cost))
    for lineno, parts in _tokens(path):
        if parts[0] != "t":
            raise ParseError(f"unknown line type {parts[0]!r}", lineno)
        if len(parts) != 5:
            raise ParseError(f"expected 't <inTail> <inHead> <outHead> <cost|x>', got {' '.join(parts)}", lineno)
        try:
            a, b, c = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ParseError("non-integer vertex fields", lineno) from None
        if not (1 <= a <= n and 1 <= b <= n and 1 <= c <= n):
            raise ConsistencyError(f"line {lineno}: vertex ID out of [1, {n}]")
        self_loop = a == b or b == c
        if not self_loop:
            # the arcs (a, b) and (b, c), found as g.arc_index finds them;
            # 1-based vertex v's out-arcs are first_out[v - 1]:first_out[v]
            in_end, via_start, via_end = first_out[a], first_out[b - 1], first_out[b]
            in_arc = bisect_left(head, b - 1, first_out[a - 1], in_end)
            out_arc = bisect_left(head, c - 1, via_start, via_end)
            if (in_arc == in_end or head[in_arc] != b - 1
                    or out_arc == via_end or head[out_arc] != c - 1):
                raise ConsistencyError(f"line {lineno}: turn references nonexistent arc")
        if parts[4] == "x":
            turn_cost = FORBIDDEN
        else:
            try:
                turn_cost = int(parts[4])
            except ValueError:
                raise ParseError(f"cost must be an integer or 'x', got {parts[4]!r}", lineno) from None
            if not (0 <= turn_cost < INFINITY):
                raise ConsistencyError(f"line {lineno}: turn cost {turn_cost} outside [0, {INFINITY})")
        if self_loop:
            continue
        k = first[in_arc] + out_arc - via_start
        if seen[k]:
            raise ConsistencyError(f"line {lineno}: duplicate turn entry")
        seen[k] = 1
        cost[k] = turn_cost
    return table


def load_metric(path: str, g: InputGraph) -> list[int]:
    """Load a replacement weight function for the arcs of ``g``.

    Lines are DIMACS-style ``a <tail> <head> <weight>`` (1-based) and must
    reference stored arcs of the graph. Arcs absent from the file get
    weight INFINITY. Duplicates collapse to the minimum. A self-loop line
    is skipped once its IDs and weight are checked, as ``load_dimacs_gr``
    drops the same line, so every ``.gr`` is a metric file for itself.
    """
    weights = [INFINITY] * g.arc_count
    n = g.vertex_count
    for lineno, parts in _tokens(path):
        if parts[0] == "p":
            continue
        if parts[0] != "a":
            raise ParseError(f"unknown line type {parts[0]!r}", lineno)
        t, h, w = _arc_line(parts, n, lineno)
        if t == h:
            continue
        idx = g.arc_index(t, h)
        if idx is None:
            raise ConsistencyError(f"line {lineno}: arc ({t + 1}, {h + 1}) not in graph")
        if w < weights[idx]:
            weights[idx] = w
    return weights


def _sealed(parts):
    """``parts``, then the CRC32 of all their bytes as a 4-byte trailer."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
        yield part
    yield crc.to_bytes(4, "little")


class _Reader:
    """Cursor over an artifact's bytes. ``header`` checks a magic and
    version, and ``finish`` that no bytes are left before the trailer;
    ``array`` reads every column, the inverse of ``le_bytes``, and
    ``take`` the flag byte and the deletion marks."""

    def __init__(self, data: bytes, magic: bytes, version: int, kind: str):
        """Check the artifact's magic and version, then match its trailer
        against the CRC32 of all bytes before it and end reads there."""
        self.data, self.pos, self.end = data, 0, len(data)
        self.header(magic, version, kind)
        self.end = len(data) - 4
        if (self.end < self.pos or zlib.crc32(memoryview(data)[:self.end])
                != int.from_bytes(data[self.end:], "little")):
            raise FormatError("checksum mismatch: artifact corrupted or truncated")

    def header(self, magic: bytes, version: int, kind: str) -> None:
        if self.take(4) != magic:
            raise FormatError(f"bad magic; not a {kind} artifact")
        if (found := self.take(1)[0]) != version:
            raise FormatError(f"unsupported {kind} artifact version {found}")

    def finish(self) -> None:
        if self.pos != self.end:
            raise FormatError("trailing bytes in artifact")

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > self.end:
            raise FormatError("truncated artifact")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def array(self, typecode: str, count: int) -> array:
        """Read ``count`` little-endian 4-byte values into an ``array``."""
        arr = array(typecode)
        arr.frombytes(self.take(4 * count))
        if sys.byteorder != "little":  # pragma: no cover
            arr.byteswap()
        return arr


def _cch_parts(cch: Cch):
    """The CCHP encoding of ``cch`` without its trailer, one column at a time:
    the u32 header (n, m, input arc count, fingerprint), then ``first_arc``,
    ``head``, ``vertex_at``, ``orig_up`` and ``orig_down``."""
    ug = cch.ug
    header = array("I", (ug.vertex_count, ug.arc_count, ug.input_arc_count, cch.fingerprint))
    yield CCHP_MAGIC + bytes([CCHP_VERSION])
    yield from map(le_bytes, (header, ug.first_arc, ug.head, array("I", cch.order.vertex_at),
                              ug.orig_up, ug.orig_down))


def _cch_columns(r: _Reader) -> tuple:
    """The columns ``_cch_parts`` writes after its magic and version, in
    ``Cch.from_columns``'s argument order."""
    n, m, input_arc_count, fingerprint = r.array("I", 4)
    return (r.array("i", n + 1), r.array("i", m), r.array("I", n), r.array("i", m),
            r.array("i", m), input_arc_count, fingerprint)


def save_cch(cch: Cch, path: str) -> None:
    """Write ``cch`` as a CCHP file."""
    with open(path, "wb") as f:
        f.writelines(_sealed(_cch_parts(cch)))


def serialize_cch(cch: Cch) -> bytes:
    return b"".join(_sealed(_cch_parts(cch)))


def load_cch(path: str) -> Cch:
    with open(path, "rb") as f:
        columns = _read_cch(f.read())
    return Cch.from_columns(*columns)


def deserialize_cch(data: bytes) -> Cch:
    return Cch.from_columns(*_read_cch(data))


def _read_cch(data: bytes) -> tuple:
    """The columns of a CCHP, checked against its header and trailer. The
    reader, and with it the file's bytes, ends when this returns."""
    r = _Reader(data, CCHP_MAGIC, CCHP_VERSION, "preprocessing")
    columns = _cch_columns(r)
    r.finish()
    return columns


def _customized_parts(c: Customized):
    """The CCHM encoding of ``c`` without its trailer, one column at a time:
    the perfect flag, the CCHP without its trailer, ``input_weights``,
    ``l_up``, ``l_down``, ``up_a``, ``up_b``, ``down_a``, ``down_b``, then
    one byte per arc for ``delete_up`` and for ``delete_down``."""
    m = c.metric
    yield CCHM_MAGIC + bytes([CCHM_VERSION, 1 if c.perfect else 0])
    yield from _cch_parts(c.cch)
    yield from map(le_bytes, (c.input_weights, m.l_up, m.l_down,
                              m.up_a, m.up_b, m.down_a, m.down_b))
    yield bytes(m.delete_up)
    yield bytes(m.delete_down)


def save_customized(c: Customized, path: str) -> None:
    """Write ``c`` as a CCHM file."""
    # Part by part: joining them first would hold the artifact twice at
    # the moment a recustomization also holds two metrics.
    with open(path, "wb") as f:
        f.writelines(_sealed(_customized_parts(c)))


def serialize_customized(c: Customized) -> bytes:
    return b"".join(_sealed(_customized_parts(c)))


def load_customized(path: str) -> Customized:
    """Load a CCHM. The embedded hierarchy is checked before the metric is read."""
    with open(path, "rb") as f:
        perfect_flag, cch, input_weights, metric = _read_customized(f.read())
    # deleting the bytes 0 and 1 leaves only the marks that are neither
    if metric.delete_up.translate(None, b"\0\1") or metric.delete_down.translate(None, b"\0\1"):
        raise FormatError("deletion mark is not 0 or 1")
    if not perfect_flag and (any(metric.delete_up) or any(metric.delete_down)):
        raise ConsistencyError("basic-only customized artifact carries deletion marks")
    check_witnesses(cch.ug, metric)
    return Customized(cch, metric, bool(perfect_flag), input_weights)


def _read_customized(data: bytes) -> tuple:
    """The perfect flag, hierarchy, input weights and metric of a CCHM.
    The reader, and with it the file's bytes, ends when this returns, so
    they are gone before the witness checks and the search graphs."""
    r = _Reader(data, CCHM_MAGIC, CCHM_VERSION, "customized")
    perfect_flag = r.take(1)[0]
    if perfect_flag not in (0, 1):
        raise FormatError(f"perfect flag is {perfect_flag}, not 0 or 1")
    r.header(CCHP_MAGIC, CCHP_VERSION, "preprocessing")
    cch = Cch.from_columns(*_cch_columns(r))
    arc_count = cch.ug.arc_count
    input_weights = r.array("I", cch.ug.input_arc_count)
    # Witnesses read as int32: 0xFFFFFFFF is SENTINEL, and any other value
    # of 2**31 or more turns negative, which the witness check rejects.
    metric = CustomizedMetric(
        l_up=r.array("I", arc_count),
        l_down=r.array("I", arc_count),
        up_a=r.array("i", arc_count),
        up_b=r.array("i", arc_count),
        down_a=r.array("i", arc_count),
        down_b=r.array("i", arc_count),
        delete_up=bytearray(r.take(arc_count)),
        delete_down=bytearray(r.take(arc_count)))
    r.finish()
    return perfect_flag, cch, input_weights, metric
