"""Turn-cost modeling by graph expansion.

Turn costs and restrictions become part of the graph itself: every stored
arc of the input becomes a vertex of the expanded graph, and every
permitted turn (in-arc, out-arc) at a shared via vertex becomes an arc
weighted with the in-arc's travel cost plus the turn cost. All other
algorithms then run on the expanded graph unchanged.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import accumulate
from operator import sub

from .errors import ConsistencyError
from .graph import INFINITY, Coordinates, InputGraph

FORBIDDEN = -1
"""Turn-table cost sentinel: the (in, out) arc pair may not be taken."""


def _candidate_offsets(g: InputGraph) -> array:
    """m + 1 prefix sums of ``out_degree(head[a])`` over the arcs a of ``g``."""
    first_out = g.first_out
    degree = list(map(sub, first_out[1:], first_out))
    return array("i", accumulate(map(degree.__getitem__, g.head), initial=0))


@dataclass
class TurnTable:
    """Turn costs of ``graph`` as two columns, one entry per candidate turn.

    ``TurnTable(g)`` is the table of ``g`` in which every turn is free.
    The candidate out-arcs of in-arc a are the out-arcs of ``head[a]``,
    the contiguous range ``first_out[head[a]]:first_out[head[a] + 1]``, so
    the cost of turn (a, b) sits at ``first[a] + (b - first_out[head[a]])``
    of ``cost``. Both columns are derived at construction: ``first`` holds
    m + 1 offsets (``'i'``) and ``cost`` one ``'q'`` per candidate, 0 for a
    free turn and FORBIDDEN for one that may not be taken. The table fits
    every graph with ``graph``'s topology.
    """

    graph: InputGraph = field(repr=False)
    first: array = field(init=False)
    cost: array = field(init=False)

    def __post_init__(self):
        self.first = _candidate_offsets(self.graph)
        self.cost = array("q", bytes(8 * self.first[-1]))

    @classmethod
    def from_dict(cls, g: InputGraph, turns: dict[tuple[int, int], int]) -> TurnTable:
        """The table of a mapping (in-arc id, out-arc id) -> cost, or
        FORBIDDEN; pairs absent from it are free. Both arcs of a pair must
        share a via vertex: head(in) == tail(out)."""
        table = cls(g)
        first, cost = table.first, table.cost
        first_out, head, tail, m = g.first_out, g.head, g.tail, g.arc_count
        for (a, b), c in turns.items():
            if not (0 <= a < m and 0 <= b < m):
                raise ConsistencyError(f"turn ({a}, {b}) references nonexistent arc")
            if head[a] != tail[b]:
                raise ConsistencyError(
                    f"turn ({a}, {b}) does not share a via vertex: "
                    f"head {head[a]} != tail {tail[b]}")
            if c != FORBIDDEN and c < 0:
                raise ConsistencyError(f"turn ({a}, {b}) has negative cost {c}")
            try:
                cost[first[a] + b - first_out[head[a]]] = c
            except OverflowError:  # 2**63 or more; any cost from INFINITY up fails expansion
                raise ConsistencyError(
                    f"turn ({a}, {b}) cost {c} outside [0, {INFINITY})") from None
        return table

    def to_dict(self) -> dict[tuple[int, int], int]:
        """(in-arc, out-arc) -> cost of every turn that is not free."""
        first, cost = self.first, self.cost
        first_out, head = self.graph.first_out, self.graph.head
        return {(a, first_out[head[a]] + k - first[a]): cost[k]
                for a in range(len(first) - 1) for k in range(first[a], first[a + 1])
                if cost[k]}


@dataclass
class TurnExpansion:
    """Expanded graph of an input graph with m arcs. Arc-vertex i is input
    arc i, so ``arc_of_vertex``, derived on read, is ``range(m)``."""

    graph: InputGraph
    arc_of_vertex = property(lambda self: range(self.graph.vertex_count))


def expand_turns(g: InputGraph, turns: TurnTable) -> TurnExpansion:
    """Expand ``g`` into its turn-aware graph.

    ``turns`` must fit ``g``: its graph is ``g``, or has ``g``'s
    ``first_out`` and ``head`` values, and its ``cost`` has one entry per
    candidate turn. Any other table raises ConsistencyError.

    One pass over the in-arcs writes the expanded columns, reading each
    candidate turn's cost by index. Tails ascend, heads ascend strictly
    within an in-arc and every ID lies in [0, m), so of the rules of
    ``InputGraph.from_arcs`` only two can apply, and they apply as there:
    a weight at or above INFINITY raises, and the (a, a) turn of a
    self-loop arc a is dropped and counted in ``dropped_self_loops``.
    """
    first, cost, built = turns.first, turns.cost, turns.graph
    same_topology = built is g or (list(built.first_out) == list(g.first_out)
                                   and list(built.head) == list(g.head))
    if not same_topology or len(cost) != first[-1]:
        raise ConsistencyError("turn table does not fit the graph: it was built for "
                               "another topology, or its cost column was resized")
    first_out, head, weight, m = g.first_out, g.head, g.weight, g.arc_count
    x_first, x_head, x_weight = array("i", [0]), array("i"), array("I")
    add_head, add_weight = x_head.append, x_weight.append
    dropped = 0
    for a in range(m):
        lo = first_out[head[a]]
        base = first[a] - lo
        la = weight[a]
        for b in range(lo, lo + first[a + 1] - first[a]):
            c = cost[base + b]
            if c == FORBIDDEN:
                continue
            w = la + c
            if w >= INFINITY:
                raise ConsistencyError(f"arc ({a}, {b}) weight {w} outside [0, {INFINITY})")
            if b == a:
                dropped += 1
                continue
            add_head(b)
            add_weight(w)
        x_first.append(len(x_head))
    return TurnExpansion(InputGraph(m, x_first, x_head, x_weight, dropped_self_loops=dropped))


def expanded_coordinates(g: InputGraph, coords: Coordinates) -> Coordinates:
    """Midpoint coordinates for arc-vertices, usable by inertial ordering:
    arc-vertex i is input arc i of ``g``, whose vertices ``coords`` cover."""
    if len(coords) != g.vertex_count:
        raise ConsistencyError(f"coordinates cover {len(coords)} vertices, graph has {g.vertex_count}")
    return Coordinates(x=[(coords.x[t] + coords.x[h]) // 2 for t, h in zip(g.tail, g.head)],
                       y=[(coords.y[t] + coords.y[h]) // 2 for t, h in zip(g.tail, g.head)])
